package montecarlo

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/region"
	"caribou/internal/stats"
)

// assertTapeParity pins the tape replay to the untaped reference path:
// every Estimate field — means, tails, carbon split, AND the converged
// sample count — must be bit-identical, not merely close.
func assertTapeParity(t *testing.T, snap *Snapshot, plan dag.Plan, h int) *Estimate {
	t.Helper()
	assign, err := snap.Assign(plan)
	if err != nil {
		t.Fatal(err)
	}
	taped, err := snap.Estimate(assign, h)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := snap.EstimateUntaped(assign, h)
	if err != nil {
		t.Fatal(err)
	}
	if *taped != *ref {
		t.Errorf("hour %d plan %v: taped %+v != reference %+v", h, plan, taped, ref)
	}
	return taped
}

// TestTapeMatchesReferenceBitIdentical covers two workloads — the
// branch+sync rich workflow and the linear chain — across hours and
// plans. Struct equality asserts bit-identical floats and identical
// sample counts.
func TestTapeMatchesReferenceBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		in    *fakeInputs
		plans func(d *dag.DAG) []dag.Plan
	}{
		{
			name: "rich",
			in:   richInputs(t),
			plans: func(d *dag.DAG) []dag.Plan {
				return []dag.Plan{
					dag.NewHomePlan(d, region.USEast1),
					{"start": region.USEast1, "left": region.CACentral1, "right": region.USWest2,
						"join": region.CACentral1, "tail": region.USEast1},
					{"start": region.CACentral1, "left": region.USWest2, "right": region.CACentral1,
						"join": region.USEast1, "tail": region.CACentral1},
				}
			},
		},
		{
			name: "chain",
			in:   chainInputs(t),
			plans: func(d *dag.DAG) []dag.Plan {
				return []dag.Plan{
					dag.NewHomePlan(d, region.USEast1),
					dag.NewHomePlan(d, region.CACentral1),
					{"a": region.USEast1, "b": region.CACentral1},
				}
			},
		},
	}
	hours := []time.Time{t0, t0.Add(time.Hour), t0.Add(7 * time.Hour)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			est := New(tc.in, carbon.BestCase(), 11)
			snap, err := est.Compile(nil, hours, t0)
			if err != nil {
				t.Fatal(err)
			}
			for _, plan := range tc.plans(tc.in.d) {
				for h := range hours {
					assertTapeParity(t, snap, plan, h)
				}
			}
		})
	}
}

// heavyTailInputs makes exec durations so skewed that the CV stopping
// rule never fires and every estimate runs the full MaxSamples — which
// forces the lazy tape to extend batch by batch to its cap.
type heavyTailInputs struct {
	*fakeInputs
}

func (h *heavyTailInputs) ExecDuration(dag.NodeID, region.ID) (*stats.Distribution, error) {
	// sd/mean ≈ 3.8 per draw keeps the standard error of the latency mean
	// above TargetCV even at MaxSamples (0.05·√2000 ≈ 2.24 would suffice).
	d := stats.NewDistribution(12)
	for i := 0; i < 11; i++ {
		d.Add(1)
	}
	d.Add(1e6)
	return d, nil
}

// TestTapeLazyExtension checks the compile-on-demand contract: a
// fast-converging plan builds only the first batch of the shared tape; a
// slow one extends it to MaxSamples; no hour bakes bound columns until a
// prune check asks, and then only as far as it looks ahead.
func TestTapeLazyExtension(t *testing.T) {
	tapeLen := func(s *Snapshot) int {
		d := s.tape.data.Load()
		if d == nil {
			return 0
		}
		return d.n
	}
	unbaked := func(s *Snapshot) {
		t.Helper()
		for h := range s.bounds {
			if b := s.bounds[h].data.Load(); b != nil {
				t.Errorf("hour %d baked %d bound samples without a prune check", h, b.n)
			}
		}
	}

	in := chainInputs(t)
	est := New(in, carbon.BestCase(), 5)
	snap, err := est.Compile(nil, []time.Time{t0, t0.Add(time.Hour)}, t0)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := snap.Assign(dag.NewHomePlan(in.d, region.USEast1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := snap.Estimate(assign, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Samples != BatchSize {
		t.Fatalf("constant inputs should converge in one batch, got %d samples", e.Samples)
	}
	if got := tapeLen(snap); got != BatchSize {
		t.Errorf("tape holds %d samples, want exactly one batch (%d)", got, BatchSize)
	}
	unbaked(snap)
	if b := snap.bounds[1].ensure(snap, 1, 2*BatchSize); b.n != 2*BatchSize || tapeLen(snap) != 2*BatchSize {
		t.Errorf("hour 1 bounds cover %d samples over a %d-sample tape, want both at %d", b.n, tapeLen(snap), 2*BatchSize)
	}
	if b := snap.bounds[0].data.Load(); b != nil {
		t.Errorf("hour 1's prune horizon baked %d samples at hour 0", b.n)
	}

	heavy := &heavyTailInputs{fakeInputs: chainInputs(t)}
	hest := New(heavy, carbon.BestCase(), 5)
	hsnap, err := hest.Compile(nil, []time.Time{t0}, t0)
	if err != nil {
		t.Fatal(err)
	}
	hassign, err := hsnap.Assign(dag.NewHomePlan(heavy.d, region.USEast1))
	if err != nil {
		t.Fatal(err)
	}
	he, err := hsnap.Estimate(hassign, 0)
	if err != nil {
		t.Fatal(err)
	}
	if he.Samples != MaxSamples || he.Converged {
		t.Fatalf("heavy-tail inputs should exhaust MaxSamples unconverged, got %d converged=%v",
			he.Samples, he.Converged)
	}
	if got := tapeLen(hsnap); got != MaxSamples {
		t.Errorf("tape extended to %d samples, want %d", got, MaxSamples)
	}
	unbaked(hsnap)
	// Extension must not perturb results: parity after the tape is full.
	assertTapeParity(t, hsnap, dag.NewHomePlan(heavy.d, region.CACentral1), 0)
}

// TestTapeConcurrentLazyBuildDeterministic races many goroutines into
// the first build and later extensions of a shared tape (run with -race
// via `make verify`): every concurrent estimate must equal its serial
// counterpart from a fresh snapshot.
func TestTapeConcurrentLazyBuildDeterministic(t *testing.T) {
	in := richInputs(t)
	plans := []dag.Plan{
		dag.NewHomePlan(in.d, region.USEast1),
		{"start": region.USEast1, "left": region.CACentral1, "right": region.USWest2,
			"join": region.CACentral1, "tail": region.USEast1},
		{"start": region.CACentral1, "left": region.USWest2, "right": region.CACentral1,
			"join": region.USEast1, "tail": region.CACentral1},
		dag.NewHomePlan(in.d, region.USWest2),
	}

	serialSnap, err := New(in, carbon.BestCase(), 9).Compile(nil, []time.Time{t0}, t0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Estimate, len(plans))
	for i, p := range plans {
		if want[i], err = serialSnap.EstimatePlan(p, 0); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := New(in, carbon.BestCase(), 9).Compile(nil, []time.Time{t0}, t0)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	got := make([][]*Estimate, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*Estimate, len(plans))
			for i, p := range plans {
				e, err := snap.EstimatePlan(p, 0)
				if err != nil {
					errs[g] = err
					return
				}
				got[g][i] = e
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range plans {
			if *got[g][i] != *want[i] {
				t.Errorf("goroutine %d plan %d diverged from serial: %+v vs %+v",
					g, i, got[g][i], want[i])
			}
		}
	}
}

// deepChainInputs builds start →(p=0) c0 → c1 → … → c<depth-1>: the
// untaken conditional head makes every sample skip-propagate down the
// full chain, so recursion depth would scale with the workflow size.
func deepChainInputs(t *testing.T, depth int) *fakeInputs {
	t.Helper()
	b := dag.NewBuilder("deepchain").AddNode(dag.Node{ID: "start"})
	prev := dag.NodeID("start")
	for i := 0; i < depth; i++ {
		id := dag.NodeID(fmt.Sprintf("c%d", i))
		b.AddNode(dag.Node{ID: id})
		if i == 0 {
			b.AddConditionalEdge(prev, id, 0)
		} else {
			b.AddEdge(prev, id)
		}
		prev = id
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &fakeInputs{
		d:         d,
		cat:       region.NorthAmerica(),
		durations: map[dag.NodeID]float64{"start": 1},
		bytes:     map[[2]dag.NodeID]float64{},
		probs:     map[[2]dag.NodeID]float64{{"start", "c0"}: 0},
		intensity: map[region.ID]float64{region.USEast1: 400, region.CACentral1: 35},
		output:    map[dag.NodeID]float64{},
	}
}

// TestDeepConditionalChainSkipPropagation is the regression test for the
// iterative (explicit-stack) skip propagation: a 30,000-node linear
// chain of skipped stages must evaluate without growing the goroutine
// stack per node, on the tape compiler, the untaped snapshot path, and
// the Inputs-path estimator alike — and all three must agree.
func TestDeepConditionalChainSkipPropagation(t *testing.T) {
	const depth = 30000
	in := deepChainInputs(t, depth)
	est := New(in, carbon.BestCase(), 13)
	snap, err := est.Compile([]region.ID{region.USEast1, region.CACentral1}, []time.Time{t0}, t0)
	if err != nil {
		t.Fatal(err)
	}
	plan := dag.NewHomePlan(in.d, region.USEast1)
	taped := assertTapeParity(t, snap, plan, 0)
	// Only "start" runs (≈1 s exec plus entry overheads): the whole chain
	// was skipped in every sample.
	if taped.LatencyMean < 1 || taped.LatencyMean > 2 {
		t.Errorf("latency %v, want ~1.1 s with the chain skipped", taped.LatencyMean)
	}
	want, err := est.oracleEstimate(plan, t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if taped.Samples != want.Samples || relDiff(taped.LatencyMean, want.LatencyMean) > 1e-9 {
		t.Errorf("snapshot %+v disagrees with estimator %+v", taped, want)
	}
}
