package montecarlo

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/region"
	"caribou/internal/stats"
	"caribou/internal/telemetry"
)

// enableTelemetry installs a fresh process recorder for the test so the
// montecarlo counters (captured at Estimator construction) are live, and
// restores the disabled default afterwards.
func enableTelemetry(t *testing.T) {
	t.Helper()
	telemetry.Enable(telemetry.Options{})
	t.Cleanup(telemetry.Disable)
}

// diamondInputs builds s → {fast, slow} → join with a synchronization join:
// staged-payload edges and a sync wait, no conditional edge.
func diamondInputs(t *testing.T) *fakeInputs {
	t.Helper()
	d, err := dag.NewBuilder("diamond").
		AddNode(dag.Node{ID: "s"}).
		AddNode(dag.Node{ID: "fast"}).
		AddNode(dag.Node{ID: "slow"}).
		AddNode(dag.Node{ID: "join"}).
		AddEdge("s", "fast").
		AddEdge("s", "slow").
		AddEdge("fast", "join").
		AddEdge("slow", "join").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &fakeInputs{
		d:         d,
		cat:       region.NorthAmerica(),
		durations: map[dag.NodeID]float64{"s": 1, "fast": 1, "slow": 4, "join": 1},
		bytes: map[[2]dag.NodeID]float64{
			{"s", "fast"}: 1e5, {"s", "slow"}: 1e6, {"fast", "join"}: 1e4, {"slow", "join"}: 2e6,
		},
		intensity: map[region.ID]float64{region.USEast1: 400, region.USWest2: 250, region.CACentral1: 35},
		output:    map[dag.NodeID]float64{"join": 2e5},
	}
}

// spreadPlans is a plan set over any fixture: home, all-green, an
// alternating mix, and three seeded random assignments.
func spreadPlans(t *testing.T, snap *Snapshot, d *dag.DAG) [][]int {
	t.Helper()
	var assigns [][]int
	for _, p := range batchPlanSet(d) {
		a, err := snap.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		assigns = append(assigns, a)
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 3; k++ {
		a := make([]int, snap.NumNodes())
		for i := range a {
			a[i] = rng.Intn(snap.Regions())
		}
		assigns = append(assigns, a)
	}
	return assigns
}

func metricOfEstimate(e *Estimate, m BatchMetric) float64 {
	switch m {
	case BatchCostMean:
		return e.CostMean
	case BatchLatencyMean:
		return e.LatencyMean
	}
	return e.CarbonMean
}

// TestEstimatePathsAgree is the contract of hour-free replay, field for
// field: EstimateRows(P)[i][h] ≡ EstimateBatch(P, h)[i] ≡ Estimate(P[i], h)
// ≡ EstimateUntaped(P[i], h) on the chain, diamond, sync-rich, noisy and
// heavy-tail fixtures over three hours with different intensity rows —
// unpruned, and under each priority's metric with thresholds set at the
// plans' own true metrics plus the solver's 1e-9 slack (the prune checks
// run, and must prune nothing).
// Estimator.oracleEstimate (oracle_test.go), which prices carbon event by
// event over the Inputs interface, is the independent oracle: sample counts
// and the converged flag equal, carbon fields within 1e-12 relative (summation
// order), latency and cost within the affine transfer model's 1e-9.
func TestEstimatePathsAgree(t *testing.T) {
	rich := richInputs(t)
	fixtures := []struct {
		name string
		in   Inputs
		d    *dag.DAG
	}{
		{"chain", chainInputs(t), nil},
		{"diamond", diamondInputs(t), nil},
		{"rich", rich, rich.d},
		{"noisy", &noisyInputs{rich}, rich.d},
		{"heavy-tail", &heavyTailInputs{rich}, rich.d},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			in := &hourlyInputs{Inputs: fx.in, scale: map[int]float64{1: 3, 2: 0.4}}
			est := New(in, carbon.BestCase(), 42)
			hours := hoursFrom(3)
			snap, err := est.Compile(nil, hours, t0)
			if err != nil {
				t.Fatal(err)
			}
			assigns := spreadPlans(t, snap, in.DAG())
			H := len(hours)

			want := make([][]*Estimate, len(assigns))
			for i, a := range assigns {
				want[i] = make([]*Estimate, H)
				for h := range hours {
					if want[i][h], err = snap.EstimateUntaped(a, h); err != nil {
						t.Fatal(err)
					}
					single, err := snap.Estimate(a, h)
					if err != nil {
						t.Fatal(err)
					}
					if *single != *want[i][h] {
						t.Fatalf("plan %v hour %d: Estimate %+v, EstimateUntaped %+v", a, h, single, want[i][h])
					}
					oracle, err := est.oracleEstimate(snap.PlanOf(a), hours[h], t0)
					if err != nil {
						t.Fatal(err)
					}
					if single.Samples != oracle.Samples || single.Converged != oracle.Converged {
						t.Fatalf("plan %v hour %d: %d samples converged=%v, per-event oracle %d/%v",
							a, h, single.Samples, single.Converged, oracle.Samples, oracle.Converged)
					}
					for _, f := range []struct {
						name      string
						got, want float64
						tol       float64
					}{
						{"CarbonMean", single.CarbonMean, oracle.CarbonMean, 1e-12},
						{"CarbonP95", single.CarbonP95, oracle.CarbonP95, 1e-12},
						{"LatencyMean", single.LatencyMean, oracle.LatencyMean, 1e-9},
						{"LatencyP95", single.LatencyP95, oracle.LatencyP95, 1e-9},
						{"CostMean", single.CostMean, oracle.CostMean, 1e-9},
						{"CostP95", single.CostP95, oracle.CostP95, 1e-9},
					} {
						if d := relDiff(f.got, f.want); d > f.tol {
							t.Errorf("plan %v hour %d %s: %v, per-event oracle %v (rel %.3g > %g)", a, h, f.name, f.got, f.want, d, f.tol)
						}
					}
				}
			}

			check := func(label string, rows [][]*Estimate, batch func(h int) ([]*Estimate, error)) {
				t.Helper()
				for h := 0; h < H; h++ {
					col, err := batch(h)
					if err != nil {
						t.Fatal(err)
					}
					for i := range assigns {
						if rows[i][h] == nil || *rows[i][h] != *want[i][h] {
							t.Errorf("%s plan %d hour %d: row %+v, reference %+v", label, i, h, rows[i][h], want[i][h])
						}
						if col[i] == nil || *col[i] != *want[i][h] {
							t.Errorf("%s plan %d hour %d: batch %+v, reference %+v", label, i, h, col[i], want[i][h])
						}
					}
				}
			}
			rows, err := snap.EstimateRows(assigns, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("unpruned", rows, func(h int) ([]*Estimate, error) { return snap.EstimateBatch(assigns, h, nil) })

			for _, metric := range []BatchMetric{BatchCarbonMean, BatchCostMean, BatchLatencyMean} {
				// Over the window a threshold is per hour: the largest true metric
				// among the plans prunes none of them. At one hour, one plan per
				// call sets each plan's own, looking ahead to the end of the tape.
				rp := &RowPrune{Metric: metric, Threshold: make([]float64, H), Horizon: make([]int, H)}
				for h := 0; h < H; h++ {
					rp.Horizon[h] = MaxSamples
					for i := range assigns {
						rp.Threshold[h] = math.Max(rp.Threshold[h], metricOfEstimate(want[i][h], metric)*(1+1e-9))
					}
				}
				if rows, err = snap.EstimateRows(assigns, rp); err != nil {
					t.Fatal(err)
				}
				check("thresholds at the true metric", rows, func(h int) ([]*Estimate, error) {
					col := make([]*Estimate, len(assigns))
					for i := range assigns {
						es, err := snap.EstimateBatch(assigns[i:i+1], h, hourPrune(metric, h, metricOfEstimate(want[i][h], metric), MaxSamples))
						if err != nil {
							return nil, err
						}
						col[i] = es[0]
					}
					return col, nil
				})
			}
		})
	}
}

// raggedInputs is the diamond with a noisy fast branch (sd/mean ≈ 1.6 per
// draw, off the critical path and a few percent of the cost) and per-hour
// intensity scales for us-west-2 only. A plan that runs the fast branch in
// us-west-2 has a near-constant carbon series at an hour where us-west-2 is
// clean — it stops at the first boundary — and a carbon series dominated
// by the noisy stage at an hour where us-west-2 is dirty: several batches.
type raggedInputs struct {
	*fakeInputs
	west map[int]float64 // us-west-2 intensity scale by t.Hour()
}

func (r *raggedInputs) ExecDuration(id dag.NodeID, _ region.ID) (*stats.Distribution, error) {
	if id != "fast" {
		return constDist(r.durations[id]), nil
	}
	d := stats.NewDistribution(12)
	for i := 0; i < 9; i++ {
		d.Add(0.1)
	}
	d.Add(1.2)
	return d, nil
}

func (r *raggedInputs) IntensityAt(id region.ID, at, now time.Time) (float64, error) {
	v, err := r.fakeInputs.IntensityAt(id, at, now)
	if s, ok := r.west[at.Hour()]; ok && id == region.USWest2 {
		v *= s
	}
	return v, err
}

// raggedSnapshot compiles raggedInputs over four hours — us-west-2 clean at
// hours 0 and 2, dirty at hours 1 and 3 — and returns the plan that runs
// the fast branch there.
func raggedSnapshot(t *testing.T) (*Snapshot, []int) {
	t.Helper()
	in := &raggedInputs{fakeInputs: diamondInputs(t), west: map[int]float64{0: 1e-4, 1: 1e4, 2: 1e-4, 3: 1e4}}
	snap, err := New(in, carbon.BestCase(), 42).Compile(nil, hoursFrom(4), t0)
	if err != nil {
		t.Fatal(err)
	}
	plan := dag.NewHomePlan(in.d, region.USEast1)
	plan["fast"] = region.USWest2
	assign, err := snap.Assign(plan)
	if err != nil {
		t.Fatal(err)
	}
	return snap, assign
}

// TestBasisExtension pins the extension rule: a plan first priced at an
// hour that stops at the first boundary and then at one that needs several
// batches — and the reverse order, and the two interleaved from two
// goroutines — gives, at each hour, the bits of a fresh Estimate; the
// basis ends up exactly as long as the hungriest hour needed, and the
// replay counters count every batch once.
func TestBasisExtension(t *testing.T) {
	enableTelemetry(t)
	ref, assign := raggedSnapshot(t)
	want := make([]*Estimate, ref.NumHours())
	for h := range want {
		var err error
		if want[h], err = ref.EstimateUntaped(assign, h); err != nil {
			t.Fatal(err)
		}
	}
	if want[0].Samples != BatchSize || want[1].Samples < 2*BatchSize || want[2].Samples != BatchSize {
		t.Fatalf("fixture must stop at %d samples at hours 0 and 2 and need ≥ %d at hour 1, got %d / %d / %d",
			BatchSize, 2*BatchSize, want[0].Samples, want[1].Samples, want[2].Samples)
	}
	long := want[1].Samples

	price := func(snap *Snapshot, b *Basis, h int) {
		t.Helper()
		es, err := snap.estimateHour([]*Basis{b}, h, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if es[0] == nil || *es[0] != *want[h] {
			t.Errorf("hour %d from a %d-sample basis: %+v, fresh estimate %+v", h, b.Samples(), es[0], want[h])
		}
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {1, 0, 3, 2}, {3, 2, 1, 0}} {
		snap, _ := raggedSnapshot(t)
		arena := NewBasisArena()
		b, err := snap.NewBasis(arena, assign)
		if err != nil {
			t.Fatal(err)
		}
		replays0, samples0 := snap.tel.basisReplays.Value(), snap.tel.samples.Value()
		for k, h := range order {
			price(snap, b, h)
			if k == 0 && b.Samples() != want[h].Samples {
				t.Errorf("order %v: basis holds %d samples after hour %d alone, want %d", order, b.Samples(), h, want[h].Samples)
			}
		}
		if b.Samples() != long {
			t.Errorf("order %v: basis ended at %d samples, the hungriest hour needs %d", order, b.Samples(), long)
		}
		if got := snap.tel.basisReplays.Value() - replays0; got != int64(long/BatchSize) {
			t.Errorf("order %v: %d plan-batches replayed, want %d", order, got, long/BatchSize)
		}
		if got := snap.tel.samples.Value() - samples0; got != int64(long) {
			t.Errorf("order %v: montecarlo.samples grew by %d, want %d", order, got, long)
		}
		if snap.Sweeps.Replays.Load()*BatchSize != int64(long) {
			t.Errorf("order %v: snapshot tallied %d replayed samples, want %d", order, snap.Sweeps.Replays.Load()*BatchSize, long)
		}
		arena.Release()
	}

	// Two goroutines, one basis: short hours against long ones, with a
	// two-slot semaphore as the solver would pass.
	snap, _ := raggedSnapshot(t)
	arena := NewBasisArena()
	defer arena.Release()
	b, err := snap.NewBasis(arena, assign)
	if err != nil {
		t.Fatal(err)
	}
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	got := make([]*Estimate, len(want))
	errs := make([]error, len(want))
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for h := g; h < len(want); h += 2 { // g 0: the short hours, g 1: the long ones
				es, err := snap.estimateHour([]*Basis{b}, h, nil, sem)
				if err != nil {
					errs[h] = err
					return
				}
				got[h] = es[0]
			}
		}(g)
	}
	wg.Wait()
	for h := range want {
		if errs[h] != nil {
			t.Fatal(errs[h])
		}
		if got[h] == nil || *got[h] != *want[h] {
			t.Errorf("interleaved hour %d: %+v, fresh estimate %+v", h, got[h], want[h])
		}
	}
	if b.Samples() != long {
		t.Errorf("interleaved: basis ended at %d samples, want %d", b.Samples(), long)
	}
}

// TestBasisSurvivesPrunedHour: an hour abandoned by the bound leaves the
// basis as the samples it replayed, and the hours priced afterwards — one
// that needs fewer samples than the pruned hour had replayed, one that
// needs more — still match fresh estimates bit for bit.
func TestBasisSurvivesPrunedHour(t *testing.T) {
	enableTelemetry(t)
	snap, assign := raggedSnapshot(t)
	arena := NewBasisArena()
	defer arena.Release()
	b, err := snap.NewBasis(arena, assign)
	if err != nil {
		t.Fatal(err)
	}
	p0 := snap.tel.prunedCandidates.Value()
	es, err := snap.estimateHour([]*Basis{b}, 1, hourPrune(BatchCarbonMean, 1, 0, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if es[0] != nil || snap.tel.prunedCandidates.Value() != p0+1 {
		t.Fatalf("threshold 0 at the slow hour should prune once, got %+v (pruned %d → %d)", es[0], p0, snap.tel.prunedCandidates.Value())
	}
	if b.Samples() != BatchSize {
		t.Fatalf("pruned at the first boundary, basis holds %d samples", b.Samples())
	}
	for _, h := range []int{0, 3, 1} {
		want, err := snap.EstimateUntaped(assign, h)
		if err != nil {
			t.Fatal(err)
		}
		es, err := snap.estimateHour([]*Basis{b}, h, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if es[0] == nil || *es[0] != *want {
			t.Errorf("hour %d after a pruned hour: %+v, fresh estimate %+v", h, es[0], want)
		}
	}
}

// TestEstimateBasesPruneCountersIndependentOfGrouping: at one hour, the
// pruned_candidates and samples totals of a set of lanes are the same
// whether the lanes go one per sweep or all in one sweep, and so is the nil
// pattern: the prune horizon is the RowPrune's — the home estimate's sample
// count, as the exhaustive solver sets it — never how far a sibling lane
// has taken the tape.
func TestEstimateBasesPruneCountersIndependentOfGrouping(t *testing.T) {
	enableTelemetry(t)
	in := &heavyTailInputs{richInputs(t)}
	run := func(grouped bool) (nils []bool, pruned, samples int64) {
		snap, err := New(in, carbon.BestCase(), 42).Compile(nil, hoursFrom(1), t0)
		if err != nil {
			t.Fatal(err)
		}
		assigns := spreadPlans(t, snap, in.d)
		home, err := snap.Estimate(assigns[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		// Between the all-green plan and the rest.
		prune := hourPrune(BatchCarbonMean, 0, home.CarbonMean*0.3, home.Samples)
		p0, s0 := snap.tel.prunedCandidates.Value(), snap.tel.samples.Value()
		var got []*Estimate
		if grouped {
			if got, err = snap.EstimateBatch(assigns, 0, prune); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := len(assigns) - 1; i >= 0; i-- {
				es, err := snap.EstimateBatch(assigns[i:i+1], 0, prune)
				if err != nil {
					t.Fatal(err)
				}
				got = append([]*Estimate{es[0]}, got...)
			}
		}
		for _, e := range got {
			nils = append(nils, e == nil)
		}
		return nils, snap.tel.prunedCandidates.Value() - p0, snap.tel.samples.Value() - s0
	}
	oneNils, onePruned, oneSamples := run(false)
	allNils, allPruned, allSamples := run(true)
	if onePruned == 0 {
		t.Fatal("nothing pruned: the check would be vacuous")
	}
	if onePruned != allPruned || oneSamples != allSamples {
		t.Errorf("one lane per sweep: %d pruned, %d samples; one chunk: %d pruned, %d samples", onePruned, oneSamples, allPruned, allSamples)
	}
	for i := range oneNils {
		if oneNils[i] != allNils[i] {
			t.Errorf("plan %d: pruned=%v one lane per sweep, %v in one chunk", i, oneNils[i], allNils[i])
		}
	}
}

// The tests below were written for delta replay — evaluating a plan as a
// delta against a cached anchor replay — which hour-free replay displaced
// (DESIGN.md "Hour-free replay", "Delta on/off, measured"). They keep
// their names and their plan tables and now pin what took its place: the
// hour delta. The anchor of a plan is its basis; an estimate at a second
// hour is a delta against it that replays nothing, because two hours'
// estimates of one plan differ only in the intensity tables they are
// priced with.

// hourDelta prices plan at every hour from one basis — the first hour
// replays, the others are hour deltas — and requires each to be
// bit-identical to the untaped full estimate.
func hourDelta(t *testing.T, snap *Snapshot, plan dag.Plan) {
	t.Helper()
	assign, err := snap.Assign(plan)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewBasisArena()
	defer arena.Release()
	b, err := snap.NewBasis(arena, assign)
	if err != nil {
		t.Fatal(err)
	}
	for h := snap.NumHours() - 1; h >= 0; h-- {
		got, err := snap.estimateHour([]*Basis{b}, h, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := snap.EstimateUntaped(assign, h)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] == nil || *got[0] != *want {
			t.Errorf("hour %d plan %v: from its basis %+v, full estimate %+v", h, plan, got[0], want)
		}
	}
}

// neighborOf overlays changes on the all-home plan.
func neighborOf(d *dag.DAG, changes dag.Plan) dag.Plan {
	p := dag.NewHomePlan(d, region.USEast1)
	for k, v := range changes {
		p[k] = v
	}
	return p
}

// TestEstimateBasesLaterHoursBitIdenticalToFull sweeps the neighbour shapes HBSS
// proposes — single-stage moves late, mid and at the entry, multi-stage
// moves, a move from an already offloaded base, and the unmoved plan — on
// the sync-rich workflow over hours with different intensity rows: every
// hour priced from the plan's basis must be bit-identical to full replay.
func TestEstimateBasesLaterHoursBitIdenticalToFull(t *testing.T) {
	base := richInputs(t)
	in := &hourlyInputs{Inputs: base, scale: map[int]float64{1: 3, 7: 0.4}}
	hours := []time.Time{t0, t0.Add(time.Hour), t0.Add(7 * time.Hour)}
	snap, err := New(in, carbon.BestCase(), 11).Compile(nil, hours, t0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []struct {
		name string
		plan dag.Plan
	}{
		{"late-single", neighborOf(base.d, dag.Plan{"tail": region.CACentral1})},
		{"mid-single", neighborOf(base.d, dag.Plan{"join": region.USWest2})},
		{"entry-diff", neighborOf(base.d, dag.Plan{"start": region.CACentral1})},
		{"multi-late", neighborOf(base.d, dag.Plan{"join": region.CACentral1, "tail": region.USWest2})},
		{"multi-spanning", neighborOf(base.d, dag.Plan{"left": region.USWest2, "tail": region.CACentral1})},
		{"base-offloaded", neighborOf(base.d, dag.Plan{"join": region.USWest2, "tail": region.CACentral1})},
		{"identical", neighborOf(base.d, nil)},
	} {
		t.Run(pc.name, func(t *testing.T) { hourDelta(t, snap, pc.plan) })
	}
}

// TestEstimateBasesPricedHourReplaysNothing pins the repeat case: pricing
// a (plan, hour) its basis has already been priced at replays nothing and
// returns the same estimate again.
func TestEstimateBasesPricedHourReplaysNothing(t *testing.T) {
	enableTelemetry(t)
	in := richInputs(t)
	snap, err := New(in, carbon.BestCase(), 3).Compile(nil, []time.Time{t0}, t0)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewBasisArena()
	defer arena.Release()
	b, err := snap.NewBasis(arena, snap.HomeAssign())
	if err != nil {
		t.Fatal(err)
	}
	first, err := snap.estimateHour([]*Basis{b}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	replays := snap.tel.basisReplays.Value()
	again, err := snap.estimateHour([]*Basis{b}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *again[0] != *first[0] {
		t.Errorf("same (plan, hour) twice: %+v then %+v", first[0], again[0])
	}
	if snap.tel.basisReplays.Value() != replays {
		t.Error("pricing an hour the basis already covers replayed the tape")
	}
}

// TestEstimateBasesFirstEstimateBuildsBasis pins how a basis comes to exist: the
// first request for a plan builds it as a side effect of its own estimate
// (no dedicated replay), every later hour prices it without touching the
// tape, and a plan nobody asked for costs nothing.
func TestEstimateBasesFirstEstimateBuildsBasis(t *testing.T) {
	enableTelemetry(t)
	base := richInputs(t)
	in := &hourlyInputs{Inputs: base, scale: map[int]float64{1: 3}}
	snap, err := New(in, carbon.BestCase(), 11).Compile(nil, hoursFrom(2), t0)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewBasisArena()
	defer arena.Release()
	var bases []*Basis
	for _, p := range []dag.Plan{
		neighborOf(base.d, dag.Plan{"tail": region.CACentral1}),
		neighborOf(base.d, dag.Plan{"start": region.CACentral1}),
	} {
		a, err := snap.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := snap.NewBasis(arena, a)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, b)
	}
	if got := snap.tel.basisReplays.Value(); got != 0 {
		t.Fatalf("%d replays before any estimate", got)
	}

	// First request: one sweep replays both plans' first batch.
	first, err := snap.estimateHour(bases, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.tel.basisReplays.Value(); got != 2 {
		t.Errorf("first round: %d plan-batches replayed, want 2", got)
	}
	if got := snap.tel.samples.Value(); got != 2*BatchSize {
		t.Errorf("first round: montecarlo.samples = %d, want %d", got, 2*BatchSize)
	}
	for i, b := range bases {
		want, err := snap.EstimateUntaped(b.assign, 0)
		if err != nil {
			t.Fatal(err)
		}
		if *first[i] != *want {
			t.Errorf("plan %d: recording estimate %+v diverged from full replay %+v", i, first[i], want)
		}
	}

	// Second hour: priced, never replayed.
	prices := snap.tel.hourPrices.Value()
	second, err := snap.estimateHour(bases, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.tel.basisReplays.Value(); got != 2 {
		t.Errorf("second hour replayed: %d plan-batches, want still 2", got)
	}
	if got := snap.tel.hourPrices.Value() - prices; got != 2*BatchSize {
		t.Errorf("second hour priced %d (sample, hour) pairs, want %d", got, 2*BatchSize)
	}
	if second[0].CarbonMean == first[0].CarbonMean || second[0].LatencyMean != first[0].LatencyMean {
		t.Errorf("hour 1 should move carbon and nothing else: %+v vs %+v", second[0], first[0])
	}
}

// TestEstimateBasesSkippedBranchCrossesSync exercises bases whose samples contain both a
// conditionally-skipped branch (start→left has p=0.7, so some samples
// skip-propagate into the join and never touch left's region or its
// staging pair) and the join's sync wait: the slots such a sample leaves
// at zero must price exactly like the dense accumulators of full replay,
// for every placement of join and tail.
func TestEstimateBasesSkippedBranchCrossesSync(t *testing.T) {
	base := richInputs(t)
	in := &hourlyInputs{Inputs: base, scale: map[int]float64{3: 2.5}}
	hours := []time.Time{t0, t0.Add(3 * time.Hour)}
	snap, err := New(in, carbon.BestCase(), 29).Compile(nil, hours, t0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []region.ID{region.CACentral1, region.USWest2} {
		for _, join := range []region.ID{region.USEast1, region.CACentral1} {
			hourDelta(t, snap, neighborOf(base.d, dag.Plan{"left": region.USWest1, "join": join, "tail": tail}))
		}
	}
}

// TestBasisHeavyTailConcurrentParity drives one shared basis far down the
// tape: heavy-tail exec durations keep every hour unconverged for many
// batches, so whichever goroutine gets there first extends the basis batch
// after batch while the others wait for it — slotless — and then price
// what it replayed. Eight goroutines at eight hours share the basis
// (put under -race by `make race`) and each must match the serial full
// replay bit for bit, with every batch replayed exactly once.
func TestBasisHeavyTailConcurrentParity(t *testing.T) {
	enableTelemetry(t)
	base := richInputs(t)
	const goroutines = 8
	scale := map[int]float64{}
	for h := 0; h < goroutines; h++ {
		scale[h] = 1 + float64(h)/4
	}
	in := &hourlyInputs{Inputs: &heavyTailInputs{fakeInputs: base}, scale: scale}
	snap, err := New(in, carbon.BestCase(), 17).Compile(nil, hoursFrom(goroutines), t0)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := snap.Assign(neighborOf(base.d, dag.Plan{"tail": region.CACentral1}))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Estimate, goroutines)
	furthest := 0
	for h := range want {
		if want[h], err = snap.EstimateUntaped(assign, h); err != nil {
			t.Fatal(err)
		}
		if want[h].Samples < 3*BatchSize {
			t.Fatalf("heavy-tail fixture must run for many batches, hour %d stopped at %d samples", h, want[h].Samples)
		}
		furthest = max(furthest, want[h].Samples)
	}

	arena := NewBasisArena()
	defer arena.Release()
	b, err := snap.NewBasis(arena, assign)
	if err != nil {
		t.Fatal(err)
	}
	sem := make(chan struct{}, 2)
	errs := make([]error, goroutines)
	got := make([]*Estimate, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			es, err := snap.estimateHour([]*Basis{b}, h, nil, sem)
			if err != nil {
				errs[h] = err
				return
			}
			got[h] = es[0]
		}(g)
	}
	wg.Wait()
	for h := 0; h < goroutines; h++ {
		if errs[h] != nil {
			t.Fatal(errs[h])
		}
		if got[h] == nil || *got[h] != *want[h] {
			t.Errorf("hour %d diverged from full replay: %+v vs %+v", h, got[h], want[h])
		}
	}
	if got := snap.tel.basisReplays.Value(); got != int64(furthest/BatchSize) {
		t.Errorf("%d plan-batches replayed for one plan at %d hours, want %d", got, goroutines, furthest/BatchSize)
	}
}

// TestEstimateBasesUntapedLeavesBasisEmpty pins the reference mode: with no
// tapes there are no columns to sweep, so EstimateBases degrades to the
// plan-at-a-time untaped path — still bit-identical — and leaves the basis
// empty.
func TestEstimateBasesUntapedLeavesBasisEmpty(t *testing.T) {
	enableTelemetry(t)
	in := richInputs(t)
	neighbor := neighborOf(in.d, dag.Plan{"tail": region.CACentral1})
	t.Run("untaped", func(t *testing.T) {
		snap, err := New(in, carbon.BestCase(), 11).Compile(nil, []time.Time{t0}, t0)
		if err != nil {
			t.Fatal(err)
		}
		snap.SetTapes(false)
		assign, err := snap.Assign(neighbor)
		if err != nil {
			t.Fatal(err)
		}
		arena := NewBasisArena()
		defer arena.Release()
		b, err := snap.NewBasis(arena, assign)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.estimateHour([]*Basis{b}, 0, &RowPrune{Threshold: []float64{0}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := snap.EstimateUntaped(assign, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] == nil || *got[0] != *want {
			t.Errorf("fallback %+v, reference %+v", got[0], want)
		}
		if b.Samples() != 0 || snap.tel.basisReplays.Value() != 0 {
			t.Errorf("untaped mode must not replay onto bases (%d samples, %d replays)", b.Samples(), snap.tel.basisReplays.Value())
		}
	})
}

// TestEstimateBatchRoundThenNextHourBitIdentical covers a whole HBSS round: the
// neighbours of one incumbent — single-stage moves, an entry move, a
// multi-stage move, the incumbent itself — share one sweep at the hour that
// proposed them, and a second hour then prices all of them from the bases
// that sweep left behind. Both are bit-identical to full replay.
func TestEstimateBatchRoundThenNextHourBitIdentical(t *testing.T) {
	enableTelemetry(t)
	base := richInputs(t)
	in := &hourlyInputs{Inputs: base, scale: map[int]float64{1: 3}}
	snap, err := New(in, carbon.BestCase(), 42).Compile(nil, hoursFrom(2), t0)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewBasisArena()
	defer arena.Release()
	var bases []*Basis
	for _, p := range []dag.Plan{
		neighborOf(base.d, dag.Plan{"tail": region.CACentral1}),
		neighborOf(base.d, dag.Plan{"tail": region.USWest2}),
		neighborOf(base.d, dag.Plan{"join": region.CACentral1}),
		neighborOf(base.d, dag.Plan{"start": region.CACentral1}),
		neighborOf(base.d, dag.Plan{"left": region.USWest2, "tail": region.CACentral1}),
		neighborOf(base.d, nil),
	} {
		a, err := snap.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := snap.NewBasis(arena, a)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, b)
	}
	for h := 0; h < 2; h++ {
		got, err := snap.estimateHour(bases, h, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range bases {
			want, err := snap.EstimateUntaped(b.assign, h)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] == nil || *got[i] != *want {
				t.Errorf("hour %d plan %v: round %+v, full %+v", h, b.assign, got[i], want)
			}
		}
	}
	if got := snap.tel.basisReplays.Value(); got != int64(len(bases)) {
		t.Errorf("two hours of one round replayed %d plan-batches, want %d", got, len(bases))
	}
}
