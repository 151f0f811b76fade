package montecarlo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/region"
)

// hourlyInputs scales a workflow's grid intensities by a per-hour factor,
// so a compiled window can hold hours with equal and with different
// intensity rows. A negative factor drives that hour's carbon floors
// below zero — the condition that latches an hour's pruning bounds off.
type hourlyInputs struct {
	Inputs
	scale map[int]float64 // by t.Hour(); missing hours scale by 1
}

func (in *hourlyInputs) IntensityAt(r region.ID, t, now time.Time) (float64, error) {
	v, err := in.Inputs.IntensityAt(r, t, now)
	if s, ok := in.scale[t.Hour()]; ok {
		v *= s
	}
	return v, err
}

func hoursFrom(n int) []time.Time {
	hours := make([]time.Time, n)
	for h := range hours {
		hours[h] = t0.Add(time.Duration(h) * time.Hour)
	}
	return hours
}

// TestHourInvarianceAcrossEvalModes is the per-solve-stream invariant:
// every hour replays the same draws, so for any assignment two hours'
// estimates have bit-equal latency and cost fields whenever their sample
// counts agree (the stopping rule also watches carbon, which may stop one
// hour a batch earlier), and are bit-equal in every field when the two
// hours' intensity rows are equal — through the taped path, the untaped
// reference, the batch sweep, a row sweep and a basis shared by the three
// hours.
func TestHourInvarianceAcrossEvalModes(t *testing.T) {
	base := richInputs(t)
	// Hours 0 and 2 share an intensity row; hour 1 is three times dirtier.
	in := &hourlyInputs{Inputs: &noisyInputs{base}, scale: map[int]float64{1: 3}}
	snap, err := New(in, carbon.BestCase(), 42).Compile(nil, hoursFrom(3), t0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(snap.intensity[0], snap.intensity[2]) || slices.Equal(snap.intensity[0], snap.intensity[1]) {
		t.Fatal("fixture must give hours 0 and 2 equal intensity rows and hour 1 a different one")
	}
	home := snap.HomeAssign()
	// The "basis" mode prices hours 1 and 2 from the basis hour 0 replayed.
	arena := NewBasisArena()
	defer arena.Release()
	var shared *Basis

	modes := []struct {
		name string
		eval func(a []int, h int) (*Estimate, error)
	}{
		{"taped", snap.Estimate},
		{"untaped", snap.EstimateUntaped},
		{"batch", func(a []int, h int) (*Estimate, error) {
			es, err := snap.EstimateBatch([][]int{a, home}, h, nil)
			if err != nil {
				return nil, err
			}
			return es[0], nil
		}},
		{"rows", func(a []int, h int) (*Estimate, error) {
			rows, err := snap.EstimateRows([][]int{a}, nil)
			if err != nil {
				return nil, err
			}
			return rows[0][h], nil
		}},
		{"basis", func(a []int, h int) (*Estimate, error) {
			if h == 0 {
				arena.Release()
				var err error
				if shared, err = snap.NewBasis(arena, a); err != nil {
					return nil, err
				}
			}
			es, err := snap.estimateHour([]*Basis{shared}, h, nil, nil)
			if err != nil {
				return nil, err
			}
			return es[0], nil
		}},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]int, snap.NumNodes())
		for i := range a {
			a[i] = rng.Intn(snap.Regions())
		}
		for _, m := range modes {
			var e [3]*Estimate
			for h := range e {
				var err error
				if e[h], err = m.eval(a, h); err != nil {
					t.Log(err)
					return false
				}
			}
			if *e[0] != *e[2] {
				t.Logf("%s %v: equal intensity rows, unequal estimates: %+v vs %+v", m.name, a, e[0], e[2])
				return false
			}
			if e[0].CarbonMean == e[1].CarbonMean {
				t.Logf("%s %v: hour 1's intensities did not reach the estimate", m.name, a)
				return false
			}
			if e[0].Samples == e[1].Samples &&
				(e[0].LatencyMean != e[1].LatencyMean || e[0].LatencyP95 != e[1].LatencyP95 ||
					e[0].CostMean != e[1].CostMean || e[0].CostP95 != e[1].CostP95) {
				t.Logf("%s %v: latency/cost moved with the hour: %+v vs %+v", m.name, a, e[0], e[1])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateBatchBoundsPerHour pins what stays per hour over the shared
// tape: the bound columns. An unpruned sweep bakes none, however far it
// extends the tape; an hour's columns cover only what that hour's prune
// checks looked ahead to; extending them in steps bakes exactly what a
// one-shot bake gives; two hours' latency and cost floors are bit-equal and
// only the carbon floor folds the hour; an hour whose floors go negative
// latches its own pruning off without touching its neighbours'; and none of
// it depends on how long a plan's basis already is — hour 0 extends plan
// 0's basis over several batches, and hour 1, pricing that same basis,
// prunes exactly what a fresh snapshot prunes. Thresholds differ per plan,
// so each plan is its own call.
func TestEstimateBatchBoundsPerHour(t *testing.T) {
	enableTelemetry(t)
	base := &heavyTailInputs{richInputs(t)}
	// Hour 1 is dirtier; hour 2's intensities are negative.
	in := &hourlyInputs{Inputs: base, scale: map[int]float64{1: 3, 2: -1}}
	compile := func() *Snapshot {
		snap, err := New(in, carbon.BestCase(), 42).Compile(nil, hoursFrom(3), t0)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snap := compile()
	plans := batchPlanSet(base.d)
	assigns := make([][]int, len(plans))
	for i, p := range plans {
		var err error
		if assigns[i], err = snap.Assign(p); err != nil {
			t.Fatal(err)
		}
	}

	arena := NewBasisArena()
	defer arena.Release()
	bases := make([]*Basis, len(assigns))
	for i, a := range assigns {
		var err error
		if bases[i], err = snap.NewBasis(arena, a); err != nil {
			t.Fatal(err)
		}
	}

	// Hour 0 extends the shared tape — and plan 0's basis — over several
	// batches, unpruned: no hour has bound columns yet.
	es0, err := snap.estimateHour(bases[:1], 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e0 := es0[0]
	if bases[0].Samples() != e0.Samples {
		t.Fatalf("plan 0's basis holds %d samples after a %d-sample estimate", bases[0].Samples(), e0.Samples)
	}
	if got := snap.tape.data.Load().n; got != e0.Samples || got < 3*BatchSize {
		t.Fatalf("shared tape holds %d samples after a %d-sample estimate, want several batches", got, e0.Samples)
	}
	for h := range snap.bounds {
		if snap.bounds[h].data.Load() != nil {
			t.Fatalf("hour %d has bound columns before any prune check", h)
		}
	}
	if b := snap.bounds[1].ensure(snap, 1, BatchSize); b.n != BatchSize || len(b.preLat) != BatchSize+1 {
		t.Fatalf("hour 1 bounds cover %d samples (%d floors), want one batch", b.n, len(b.preLat)-1)
	}
	if baked := snap.tel.boundBakeSamples.Value(); baked != BatchSize {
		t.Errorf("bound_bake_samples = %d, want %d (hour 0 unpruned, hour 1 one batch)", baked, BatchSize)
	}

	// Plan 0's finite threshold is checked at every boundary and never
	// prunes, extending hour 1's columns step by step; plan 1's 0 prunes.
	thrs := []float64{1e300, 0, math.Inf(1)}
	each := func(h int, eval func(i int, p *RowPrune) ([]*Estimate, error)) []*Estimate {
		t.Helper()
		got := make([]*Estimate, len(thrs))
		for i, thr := range thrs {
			es, err := eval(i, hourPrune(BatchCarbonMean, h, thr, 0))
			if err != nil {
				t.Fatal(err)
			}
			got[i] = es[0]
		}
		return got
	}

	// Pruning parity at hour 1 through the bases: plan 0's is already long,
	// the others are empty.
	p1, s1 := snap.tel.prunedCandidates.Value(), snap.tel.samples.Value()
	got := each(1, func(i int, p *RowPrune) ([]*Estimate, error) { return snap.estimateHour(bases[i:i+1], 1, p, nil) })
	if got[1] != nil {
		t.Errorf("hour 1: threshold 0 should prune, got %+v", got[1])
	}
	if bases[1].Samples() != BatchSize {
		t.Errorf("the pruned plan's basis holds %d samples, want the one batch it was abandoned at", bases[1].Samples())
	}
	// (The counters are process-wide: take the deltas before the next run.)
	pruned1, samples1 := snap.tel.prunedCandidates.Value()-p1, snap.tel.samples.Value()-s1
	cold := compile()
	pc, sc := cold.tel.prunedCandidates.Value(), cold.tel.samples.Value()
	coldGot := each(1, func(i int, p *RowPrune) ([]*Estimate, error) { return cold.EstimateBatch(assigns[i:i+1], 1, p) })
	for i := range got {
		if (got[i] == nil) != (coldGot[i] == nil) {
			t.Errorf("hour 1 plan %d: pruned=%v over a long basis, %v on a fresh snapshot", i, got[i] == nil, coldGot[i] == nil)
		}
	}
	if a, b := pruned1, cold.tel.prunedCandidates.Value()-pc; a != b {
		t.Errorf("hour 1 pruned %d candidates over the bases, %d on a fresh snapshot", a, b)
	}
	// Plan 0 was replayed at hour 0 already: the bases replay that much less.
	if a, b := samples1, cold.tel.samples.Value()-sc; a != b-int64(got[0].Samples) {
		t.Errorf("hour 1 replayed %d samples over the bases, fresh snapshot %d, plan 0 alone %d", a, b, got[0].Samples)
	}
	for _, i := range []int{0, 2} {
		want, err := snap.EstimateUntaped(assigns[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] == nil || *got[i] != *want {
			t.Errorf("hour 1 plan %d: survivor %+v, reference %+v", i, got[i], want)
		}
	}

	// Extended batch by batch ≡ baked in one shot, and floors differ between
	// hours only in carbon.
	h1 := snap.bounds[1].data.Load()
	if h1.n < 3*BatchSize {
		t.Fatalf("hour 1 bounds cover %d samples, want several extensions", h1.n)
	}
	fresh := compile()
	oneShot := fresh.bounds[1].ensure(fresh, 1, h1.n)
	if !slices.Equal(h1.preLat, oneShot.preLat) ||
		!slices.Equal(h1.preCost, oneShot.preCost) || !slices.Equal(h1.preCarb, oneShot.preCarb) {
		t.Error("hour 1 bounds extended in steps differ from a one-shot bake")
	}
	h0 := snap.bounds[0].ensure(snap, 0, h1.n)
	if !slices.Equal(h0.preLat, h1.preLat) || !slices.Equal(h0.preCost, h1.preCost) {
		t.Error("latency/cost floors differ between hours of one tape")
	}
	if slices.Equal(h0.preCarb, h1.preCarb) {
		t.Error("carbon floors ignore the hour's intensities")
	}

	// Hour 2's negative floors latch its bounds off: nothing is pruned
	// there, results stay exact, and hours 0 and 1 keep pruning.
	p0 := snap.tel.prunedCandidates.Value()
	got = each(2, func(i int, p *RowPrune) ([]*Estimate, error) { return snap.EstimateBatch(assigns[i:i+1], 2, p) })
	if snap.bounds[2].data.Load().ok {
		t.Fatal("negative carbon floors did not latch hour 2's bounds off")
	}
	for i := range assigns {
		want, err := snap.EstimateUntaped(assigns[i], 2)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] == nil || *got[i] != *want {
			t.Errorf("hour 2 plan %d: %+v with bounds latched off, reference %+v", i, got[i], want)
		}
	}
	if snap.tel.prunedCandidates.Value() != p0 {
		t.Error("hour 2 pruned a candidate with its bounds latched off")
	}
	for _, h := range []int{0, 1} {
		if !snap.bounds[h].data.Load().ok {
			t.Errorf("hour 2's latch disabled hour %d's bounds", h)
		}
		if got = each(h, func(i int, p *RowPrune) ([]*Estimate, error) { return snap.EstimateBatch(assigns[i:i+1], h, p) }); got[1] != nil {
			t.Errorf("hour %d stopped pruning after hour 2 latched off", h)
		}
	}
}
