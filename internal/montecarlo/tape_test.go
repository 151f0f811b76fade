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

// TestNodeIndexRegroupsSteps pins the tape's node index: each batch lists
// every one of its steps exactly once, grouped by node in ascending order,
// with samples ascending within a node and each entry naming its sample's
// step at that node.
func TestNodeIndexRegroupsSteps(t *testing.T) {
	for name, in := range map[string]Inputs{"rich": richInputs(t), "diamond": diamondInputs(t), "gaps": gapInputs(t)} {
		snap, err := New(in, carbon.BestCase(), 42).Compile(nil, hoursFrom(1), t0)
		if err != nil {
			t.Fatal(err)
		}
		td := snap.tape.ensure(snap, 3*BatchSize)
		nN := snap.nodes.Len()
		if len(td.nodeOff) != td.n/BatchSize*nN+1 {
			t.Fatalf("%s: %d node offsets for %d batches of %d nodes", name, len(td.nodeOff), td.n/BatchSize, nN)
		}
		for k := 0; k < td.n/BatchSize; k++ {
			i0 := k * BatchSize
			lo, hi := td.stepOff[i0], td.stepOff[i0+BatchSize]
			if td.nodeOff[k*nN] != lo || td.nodeOff[(k+1)*nN] != hi {
				t.Fatalf("%s batch %d: index spans [%d, %d), steps [%d, %d)", name, k, td.nodeOff[k*nN], td.nodeOff[(k+1)*nN], lo, hi)
			}
			listed := make([]int, hi-lo)
			for n := 0; n < nN; n++ {
				prev := int32(-1)
				for x := td.nodeOff[k*nN+n]; x < td.nodeOff[k*nN+n+1]; x++ {
					j, si := td.nodeSample[x], td.nodeStep[x]
					switch {
					case j <= prev:
						t.Fatalf("%s batch %d node %d: sample %d listed after %d", name, k, n, j, prev)
					case si < td.stepOff[i0+int(j)] || si >= td.stepOff[i0+int(j)+1]:
						t.Fatalf("%s batch %d node %d: step %d is not sample %d's", name, k, n, si, j)
					case td.node[si] != int32(n):
						t.Fatalf("%s batch %d: step %d of node %d listed under node %d", name, k, si, td.node[si], n)
					}
					listed[si-lo]++
					prev = j
				}
			}
			for x, c := range listed {
				if c != 1 {
					t.Fatalf("%s batch %d: step %d listed %d times", name, k, int(lo)+x, c)
				}
			}
		}
	}
}

// gappedInputs is start → a (conditional), start → m → b (conditional) with
// no execution data for a or b in ca-central-1: a plan placing both there
// fails at whichever of the two its first sample to reach either runs
// first.
type gappedInputs struct{ *fakeInputs }

func gapInputs(t *testing.T) *gappedInputs {
	t.Helper()
	d, err := dag.NewBuilder("gaps").
		AddNode(dag.Node{ID: "start"}).
		AddNode(dag.Node{ID: "a"}).
		AddNode(dag.Node{ID: "m"}).
		AddNode(dag.Node{ID: "b"}).
		AddConditionalEdge("start", "a", 0.2).
		AddEdge("start", "m").
		AddConditionalEdge("m", "b", 0.2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &gappedInputs{&fakeInputs{
		d:         d,
		cat:       region.NorthAmerica(),
		durations: map[dag.NodeID]float64{"start": 1, "a": 2, "m": 1, "b": 3},
		bytes:     map[[2]dag.NodeID]float64{{"start", "a"}: 1e5, {"start", "m"}: 2e5, {"m", "b"}: 3e5},
		probs:     map[[2]dag.NodeID]float64{{"start", "a"}: 0.2, {"m", "b"}: 0.2},
		intensity: map[region.ID]float64{region.USEast1: 400, region.USWest2: 250, region.CACentral1: 35},
		output:    map[dag.NodeID]float64{"a": 1e4, "b": 1e4},
	}}
}

func (g *gappedInputs) ExecDuration(id dag.NodeID, r region.ID) (*stats.Distribution, error) {
	if (id == "a" || id == "b") && r == region.CACentral1 {
		return nil, fmt.Errorf("no execution data for %s in %s", id, r)
	}
	return g.fakeInputs.ExecDuration(id, r)
}

// TestReplayExecErrorIsTheReferences: with deferred exec errors on two
// stages that different samples reach, the taped estimate fails with the
// error the untaped reference raises — its first sample to reach either
// stage, at that sample's first errored step — whichever stage that is,
// across seeds where each comes first. Replaying several plans, the kernel
// returns the first failing plan's error and grows no basis.
func TestReplayExecErrorIsTheReferences(t *testing.T) {
	in := gapInputs(t)
	seen := map[string]bool{}
	for seed := int64(1); seed <= 12; seed++ {
		snap, err := New(in, carbon.BestCase(), seed).Compile(nil, hoursFrom(1), t0)
		if err != nil {
			t.Fatal(err)
		}
		plan := func(gaps ...dag.NodeID) []int {
			p := dag.NewHomePlan(in.d, region.USEast1)
			for _, id := range gaps {
				p[id] = region.CACentral1
			}
			a, err := snap.Assign(p)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		both, onlyB := plan("a", "b"), plan("b")
		_, want := snap.EstimateUntaped(both, 0)
		if want == nil {
			t.Fatalf("seed %d: the reference met no exec error", seed)
		}
		seen[want.Error()] = true
		if _, got := snap.Estimate(both, 0); got == nil || got.Error() != want.Error() {
			t.Errorf("seed %d: taped error %v, reference %v", seed, got, want)
		}
		// EstimateBases evaluates several plans on such a snapshot one at a
		// time; the kernel itself is handed them together here.
		_, wantB := snap.EstimateUntaped(onlyB, 0)
		bases, arena, err := snap.newBases([][]int{snap.HomeAssign(), onlyB, both})
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.replayBatch(bases, 0); got == nil || wantB == nil || got.Error() != wantB.Error() {
			t.Errorf("seed %d: a batch of plans failed with %v, want the first failing plan's %v", seed, got, wantB)
		}
		for i, b := range bases {
			if b.Samples() != 0 {
				t.Errorf("seed %d: plan %d's basis grew to %d samples in a failed batch", seed, i, b.Samples())
			}
		}
		arena.Release()
	}
	if len(seen) != 2 {
		t.Errorf("reference errors over the seeds: %v, want both stages' to come first somewhere", seen)
	}
}
