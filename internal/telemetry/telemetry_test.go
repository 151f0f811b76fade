package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Counter("x") != nil {
		t.Fatal("nil recorder must yield nil counter")
	}
	if r.Gauge("x") != nil {
		t.Fatal("nil recorder must yield nil gauge")
	}
	if r.Histogram("x", []float64{1}) != nil {
		t.Fatal("nil recorder must yield nil histogram")
	}
	sp := r.StartSpan("op")
	if sp != nil {
		t.Fatal("nil recorder must yield nil span")
	}
	// All of these must be no-ops, not panics.
	sp.End()
	sp.Annotate(String("k", "v"))
	child := sp.StartChild("child")
	child.End()
	r.Event("e", time.Now())
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value must be 0")
	}
	var g *Gauge
	g.Max(9)
	if g.Value() != 0 {
		t.Fatal("nil gauge value must be 0")
	}
	var h *Histogram
	h.Observe(1.5)
	h.Start().Stop()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram count and sum must be 0")
	}
	if err := r.WriteNDJSON(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteNDJSON: %v", err)
	}
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil summary should say disabled, got %q", buf.String())
	}
}

func TestEnableDisableDefault(t *testing.T) {
	defer Disable()
	if Default() != nil {
		t.Fatal("default should start nil")
	}
	r := Enable(Options{})
	if Default() != r || Default() == nil {
		t.Fatal("Enable must install the recorder")
	}
	Disable()
	if Default() != nil {
		t.Fatal("Disable must clear the recorder")
	}
}

func TestSpanParentLinksAndEvents(t *testing.T) {
	r := New(Options{})
	root := r.StartSpan("root", String("kind", "test"))
	child := root.StartChild("child")
	r.Event("tick", time.Date(2023, 10, 15, 6, 0, 0, 0, time.UTC), Int("n", 3))
	child.End()
	root.End()
	recs, total := r.ring.snapshot()
	if total != 3 || len(recs) != 3 {
		t.Fatalf("want 3 records, got %d (total %d)", len(recs), total)
	}
	// Records commit at End, so child precedes root; the event is first.
	ev, ch, rt := recs[0], recs[1], recs[2]
	if ev.Type != "event" || ev.Name != "tick" {
		t.Fatalf("first record should be the event, got %+v", ev)
	}
	if ev.Attrs["sim"] != "2023-10-15T06:00:00Z" {
		t.Fatalf("event sim stamp wrong: %q", ev.Attrs["sim"])
	}
	if ev.Attrs["n"] != "3" {
		t.Fatalf("event attr wrong: %q", ev.Attrs["n"])
	}
	if ch.Name != "child" || rt.Name != "root" {
		t.Fatalf("span order wrong: %q then %q", ch.Name, rt.Name)
	}
	if ch.Parent != rt.ID {
		t.Fatalf("child parent %d != root id %d", ch.Parent, rt.ID)
	}
	if ev.Parent != 0 {
		t.Fatalf("recorder event must have no parent, got %d", ev.Parent)
	}
	if rt.Parent != 0 {
		t.Fatalf("root must have no parent, got %d", rt.Parent)
	}
	if rt.Attrs["kind"] != "test" {
		t.Fatalf("root attrs lost: %+v", rt.Attrs)
	}
	if rt.DurNS < 0 {
		t.Fatalf("negative duration %d", rt.DurNS)
	}
}

func TestRingBounded(t *testing.T) {
	r := New(Options{Capacity: 4})
	for i := 0; i < 10; i++ {
		r.Event("e", time.Time{}, Int("i", int64(i)))
	}
	recs, total := r.ring.snapshot()
	if total != 10 {
		t.Fatalf("total %d != 10", total)
	}
	if len(recs) != 4 {
		t.Fatalf("retained %d != capacity 4", len(recs))
	}
	// Oldest-first: the last four events (6..9) in order.
	for i, want := range []string{"6", "7", "8", "9"} {
		if recs[i].Attrs["i"] != want {
			t.Fatalf("record %d is i=%s, want %s", i, recs[i].Attrs["i"], want)
		}
	}
}

func TestInstrumentsConcurrent(t *testing.T) {
	r := New(Options{})
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc() // interning returns the same handle
				g.Max(int64(w*1000 + i))
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter %d != 8000", c.Value())
	}
	if g.Value() != 7999 {
		t.Fatalf("gauge max %d != 7999", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count %d != 8000", h.Count())
	}
	var sum int64
	for i := range h.counts {
		sum += h.counts[i].Load()
	}
	if sum != 8000 {
		t.Fatalf("bucket sum %d != 8000", sum)
	}
}

func TestWriteNDJSONValid(t *testing.T) {
	r := New(Options{})
	sp := r.StartSpan("phase", String("name", "fig7"))
	sp.End()
	r.Event("platform.cold_start", time.Date(2023, 10, 16, 0, 0, 0, 0, time.UTC))
	r.Counter("solver.estimates").Add(42)
	r.Gauge("platform.limiter.peak").Max(7)
	r.Histogram("pool.run_seconds", []float64{1, 10}).Observe(2.5)

	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	types := map[string]int{}
	for _, line := range lines {
		var obj map[string]interface{}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", line, err)
		}
		typ, _ := obj["type"].(string)
		types[typ]++
	}
	for _, want := range []string{"span", "event", "counter", "gauge", "histogram", "meta"} {
		if types[want] == 0 {
			t.Fatalf("NDJSON missing %q records (got %v)", want, types)
		}
	}
}

func TestWriteSummary(t *testing.T) {
	r := New(Options{})
	sp := r.StartSpan("eval/fig7")
	sp.End()
	r.Counter("pool.submitted").Add(10)
	r.Counter("pool.memo_hits").Add(4)
	r.Counter("solver.hbss_batches").Add(3)
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"eval/fig7", "pool.submitted", "solver.hbss_batches", "pool.memo_hit_rate", "40.00%", "flight recorder"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestStopwatchObservesElapsedSeconds: Start/Stop records one observation
// of real elapsed time, whatever clock the timed component itself runs on.
func TestStopwatchObservesElapsedSeconds(t *testing.T) {
	h := New(Options{}).Histogram("section_sec", []float64{1e-3, 1})
	sw := h.Start()
	time.Sleep(2 * time.Millisecond)
	sw.Stop()
	if h.Count() != 1 || h.Sum() < 2e-3 || h.Sum() > 1 {
		t.Fatalf("stopwatch recorded %d observations summing to %g s, want one of ≥ 2 ms", h.Count(), h.Sum())
	}
}

func TestLapMeasuresOnlyWhenEnabled(t *testing.T) {
	lap := New(Options{}).Lap()
	time.Sleep(2 * time.Millisecond)
	if ns := lap.NS(); ns < 2e6 || ns > 1e9 {
		t.Errorf("lap measured %d ns across a 2 ms sleep", ns)
	}
	var off *Recorder
	if ns := off.Lap().NS(); ns != 0 {
		t.Errorf("nil recorder's lap measured %d ns, want 0", ns)
	}
}
