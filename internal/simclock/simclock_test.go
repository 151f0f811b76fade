package simclock

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

func TestEventsFireInTimestampOrder(t *testing.T) {
	s := New(t0)
	var fired []int
	s.After(3*time.Second, func() { fired = append(fired, 3) })
	s.After(1*time.Second, func() { fired = append(fired, 1) })
	s.After(2*time.Second, func() { fired = append(fired, 2) })
	s.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fired order %v", fired)
	}
	if s.Now() != t0.Add(3*time.Second) {
		t.Fatalf("clock at %v", s.Now())
	}
}

func TestTiesBreakInSchedulingOrder(t *testing.T) {
	s := New(t0)
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { fired = append(fired, i) })
	}
	s.Run()
	for i, v := range fired {
		if v != i {
			t.Fatalf("tie order broken at %d: %v", i, fired)
		}
	}
}

func TestNestedSchedulingDuringRun(t *testing.T) {
	s := New(t0)
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 5 {
			s.After(time.Second, recur)
		}
	}
	s.After(time.Second, recur)
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if s.Now() != t0.Add(5*time.Second) {
		t.Fatalf("clock at %v", s.Now())
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	s := New(t0)
	early, late := false, false
	s.After(time.Hour, func() { early = true })
	s.After(3*time.Hour, func() { late = true })
	s.RunUntil(t0.Add(2 * time.Hour))
	if !early || late {
		t.Fatalf("early=%v late=%v", early, late)
	}
	if s.Now() != t0.Add(2*time.Hour) {
		t.Fatalf("clock at %v, want deadline", s.Now())
	}
	if len(s.queue) != 1 {
		t.Fatalf("pending %d", len(s.queue))
	}
	s.Run()
	if !late {
		t.Fatal("late event never fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(t0)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on past scheduling")
		}
	}()
	s.At(t0.Add(-time.Second), func() {})
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := New(t0)
	ran := false
	s.After(-time.Hour, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if s.Now() != t0 {
		t.Fatalf("clock moved to %v", s.Now())
	}
}

func TestQuickEventOrderInvariant(t *testing.T) {
	// Property: for any set of offsets, firing times observed by
	// handlers are non-decreasing.
	f := func(offsets []uint16) bool {
		s := New(t0)
		last := t0
		ok := true
		for _, off := range offsets {
			s.After(time.Duration(off)*time.Millisecond, func() {
				if s.Now().Before(last) {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok && len(s.queue) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapFiresInTimeThenSchedulingOrder drives the hand-sifted heap with
// many ties and with handlers that schedule further events, and checks the
// firing order against a stable sort of (time, scheduling order).
func TestHeapFiresInTimeThenSchedulingOrder(t *testing.T) {
	rng := NewRand(5)
	s := New(t0)
	type stamp struct {
		at  time.Time
		seq int
	}
	var scheduled, fired []stamp
	var schedule func(depth int)
	schedule = func(depth int) {
		st := stamp{at: s.Now().Add(time.Duration(rng.src.Intn(8)) * time.Millisecond), seq: len(scheduled)}
		scheduled = append(scheduled, st)
		s.At(st.at, func() {
			fired = append(fired, st)
			if depth < 3 && rng.Bool(0.6) {
				schedule(depth + 1)
				schedule(depth + 1)
			}
		})
	}
	for i := 0; i < 300; i++ {
		schedule(0)
	}
	s.Run()
	if len(fired) != len(scheduled) || len(s.queue) != 0 {
		t.Fatalf("fired %d of %d events, %d pending", len(fired), len(scheduled), len(s.queue))
	}
	sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at.Before(scheduled[j].at) })
	for i := range fired {
		if fired[i] != scheduled[i] {
			t.Fatalf("event %d fired as (%v, #%d), want (%v, #%d)", i, fired[i].at, fired[i].seq, scheduled[i].at, scheduled[i].seq)
		}
	}
}

func TestDeriveRandIndependentStreams(t *testing.T) {
	a := DeriveRand(1, "a")
	b := DeriveRand(1, "b")
	a2 := DeriveRand(1, "a")
	same, diff := 0, 0
	for i := 0; i < 100; i++ {
		va, vb, va2 := a.Float64(), b.Float64(), a2.Float64()
		if va == va2 {
			same++
		}
		if va != vb {
			diff++
		}
	}
	if same != 100 {
		t.Errorf("same-label streams diverged: %d/100 equal", same)
	}
	if diff < 95 {
		t.Errorf("different labels look correlated: only %d/100 differ", diff)
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(7)
	const n = 20000

	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Normal(10, 2)
	}
	if m := sum / n; math.Abs(m-10) > 0.1 {
		t.Errorf("normal mean %.3f, want ~10", m)
	}

	sum = 0
	for i := 0; i < n; i++ {
		sum += r.Exponential(3)
	}
	if m := sum / n; math.Abs(m-3) > 0.15 {
		t.Errorf("exponential mean %.3f, want ~3", m)
	}

	sum = 0
	for i := 0; i < n; i++ {
		sum += float64(r.Poisson(4.5))
	}
	if m := sum / n; math.Abs(m-4.5) > 0.15 {
		t.Errorf("poisson mean %.3f, want ~4.5", m)
	}

	// Large-mean Poisson uses the normal approximation.
	sum = 0
	for i := 0; i < n; i++ {
		sum += float64(r.Poisson(200))
	}
	if m := sum / n; math.Abs(m-200) > 2 {
		t.Errorf("large poisson mean %.3f, want ~200", m)
	}

	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("non-positive mean must yield 0")
	}
}

func TestLogNormalMeanMatchesFormula(t *testing.T) {
	r := NewRand(3)
	const n = 50000
	mu, sigma := 1.0, 0.25
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.LogNormal(mu, sigma)
	}
	want := math.Exp(mu + sigma*sigma/2)
	if m := sum / n; math.Abs(m-want)/want > 0.03 {
		t.Errorf("lognormal mean %.3f, want ~%.3f", m, want)
	}
}

func TestUniformBounds(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}
