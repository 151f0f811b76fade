package montecarlo

import (
	"math"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/region"
	"caribou/internal/stats"
)

// noisyInputs overlays moderately skewed exec durations (sd/mean ≈ 1.6
// per draw) on a fakeInputs workflow: estimates converge, but only after
// several batch boundaries, and different plans converge at different
// boundaries — the batch sweep must retire lanes independently while the
// survivors keep replaying.
type noisyInputs struct {
	*fakeInputs
}

func (n *noisyInputs) ExecDuration(id dag.NodeID, _ region.ID) (*stats.Distribution, error) {
	base := n.durations[id]
	d := stats.NewDistribution(12)
	for i := 0; i < 9; i++ {
		d.Add(base)
	}
	d.Add(12 * base)
	return d, nil
}

// batchPlans builds a spread of candidate plans over the workflow: the
// home deployment, the all-green deployment, and mixed assignments.
func batchPlanSet(d *dag.DAG) []dag.Plan {
	home := dag.NewHomePlan(d, region.USEast1)
	green := dag.NewHomePlan(d, region.CACentral1)
	mixed := dag.Plan{}
	flip := false
	for k := range home {
		if flip {
			mixed[k] = region.USWest2
		} else {
			mixed[k] = region.USEast1
		}
		flip = !flip
	}
	return []dag.Plan{home, green, mixed}
}

// assertBatchParity runs EstimateBatch over the plan set and requires
// every returned estimate to be bit-identical to a standalone Estimate
// of the same assignment.
func assertBatchParity(t *testing.T, snap *Snapshot, plans []dag.Plan, h int) {
	t.Helper()
	assigns := make([][]int, len(plans))
	for i, p := range plans {
		a, err := snap.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		assigns[i] = a
	}
	got, err := snap.EstimateBatch(assigns, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(plans) {
		t.Fatalf("hour %d: %d estimates for %d plans", h, len(got), len(plans))
	}
	for i, est := range got {
		want, err := snap.Estimate(assigns[i], h)
		if err != nil {
			t.Fatal(err)
		}
		if est == nil {
			t.Fatalf("hour %d plan %d: nil estimate without pruning", h, i)
		}
		if *est != *want {
			t.Errorf("hour %d plan %v: batch %+v, full %+v", h, plans[i], est, want)
		}
	}
}

// TestEstimateBatchBitIdenticalToFull is the core contract of the shared
// sweep: replaying one tape pass for K plans at once must reproduce the
// per-plan estimates bit for bit — on the sync-rich workflow with both
// instantly converging (constant) and slowly converging (noisy)
// durations, across hours.
func TestEstimateBatchBitIdenticalToFull(t *testing.T) {
	hours := []time.Time{t0, t0.Add(time.Hour), t0.Add(2 * time.Hour)}
	base := richInputs(t)
	for _, tc := range []struct {
		name string
		in   Inputs
	}{
		{"const", base},
		{"noisy", &noisyInputs{base}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := New(tc.in, carbon.BestCase(), 42).Compile(nil, hours, t0)
			if err != nil {
				t.Fatal(err)
			}
			plans := batchPlanSet(base.d)
			for h := range hours {
				assertBatchParity(t, snap, plans, h)
			}
		})
	}
}

// TestEstimateBatchSingleAndEmpty pins the degenerate shapes: an empty
// batch returns an empty slice, a one-plan batch routes through the
// single-plan tape path and still matches Estimate.
func TestEstimateBatchSingleAndEmpty(t *testing.T) {
	rin := richInputs(t)
	snap, err := New(rin, carbon.BestCase(), 42).Compile(nil, []time.Time{t0}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := snap.EstimateBatch(nil, 0, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
	a, err := snap.Assign(dag.NewHomePlan(rin.d, region.USEast1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := snap.EstimateBatch([][]int{a}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := snap.Estimate(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if *got[0] != *want {
		t.Errorf("single-plan batch diverges: %+v vs %+v", got[0], want)
	}
}

// TestEstimateBatchPruningExact drives the exact-bound abandonment at one
// hour: on a heavy-tailed workload (no lane converges at the first
// boundary, so the prune check runs), a threshold of 0 is below any
// reachable metric floor and must prune the lane to nil, while +Inf
// thresholds must never prune and the survivors must stay bit-identical to
// standalone estimates. Thresholds differ per plan, so each plan is its
// own call.
func TestEstimateBatchPruningExact(t *testing.T) {
	enableTelemetry(t)
	in := &heavyTailInputs{richInputs(t)}
	snap, err := New(in, carbon.BestCase(), 42).Compile(nil, []time.Time{t0}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.bnd.ok {
		t.Fatal("bound tables not baked on a clean compile")
	}
	plans := batchPlanSet(in.d)
	assigns := make([][]int, len(plans))
	for i, p := range plans {
		if assigns[i], err = snap.Assign(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, metric := range []BatchMetric{BatchCarbonMean, BatchCostMean, BatchLatencyMean} {
		p0 := snap.tel.prunedCandidates.Value()
		got := make([]*Estimate, len(assigns))
		for i, thr := range []float64{math.Inf(1), 0, math.Inf(1)} {
			es, err := snap.EstimateBatch(assigns[i:i+1], 0, hourPrune(metric, 0, thr, 0))
			if err != nil {
				t.Fatal(err)
			}
			got[i] = es[0]
		}
		if got[1] != nil {
			t.Errorf("metric %d: threshold 0 should prune, got %+v", metric, got[1])
		}
		if snap.tel.prunedCandidates.Value() != p0+1 {
			t.Errorf("metric %d: pruned_candidates %d → %d, want +1", metric, p0, snap.tel.prunedCandidates.Value())
		}
		for _, i := range []int{0, 2} {
			want, err := snap.Estimate(assigns[i], 0)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] == nil {
				t.Fatalf("metric %d plan %d: +Inf threshold must never prune", metric, i)
			}
			if *got[i] != *want {
				t.Errorf("metric %d plan %d: survivor diverges after sibling pruned", metric, i)
			}
		}
	}
}

// TestEstimateBatchLowerBoundNeverExceedsMetric is the soundness half of
// the pruning proof at the API level: a threshold set exactly at the
// plan's true final metric, with the bound looking ahead to the end of the
// tape, must never prune it, because every intermediate lower bound is ≤
// the true mean by construction. Each plan is its own call, at its own
// threshold; the bound columns baked show the checks ran.
func TestEstimateBatchLowerBoundNeverExceedsMetric(t *testing.T) {
	enableTelemetry(t)
	in := &noisyInputs{richInputs(t)}
	snap, err := New(in, carbon.BestCase(), 42).Compile(nil, []time.Time{t0}, t0)
	if err != nil {
		t.Fatal(err)
	}
	plans := batchPlanSet(in.d)
	assigns := make([][]int, len(plans))
	full := make([]*Estimate, len(plans))
	for i, p := range plans {
		if assigns[i], err = snap.Assign(p); err != nil {
			t.Fatal(err)
		}
		if full[i], err = snap.Estimate(assigns[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		metric BatchMetric
		of     func(*Estimate) float64
	}{
		{BatchCarbonMean, func(e *Estimate) float64 { return e.CarbonMean }},
		{BatchCostMean, func(e *Estimate) float64 { return e.CostMean }},
		{BatchLatencyMean, func(e *Estimate) float64 { return e.LatencyMean }},
	} {
		for i := range plans {
			got, err := snap.EstimateBatch(assigns[i:i+1], 0, hourPrune(tc.metric, 0, tc.of(full[i]), MaxSamples))
			if err != nil {
				t.Fatal(err)
			}
			est := got[0]
			if est == nil {
				t.Errorf("metric %d plan %d: pruned at its own true metric — bound not a lower bound", tc.metric, i)
				continue
			}
			if *est != *full[i] {
				t.Errorf("metric %d plan %d: estimate diverges under active thresholds", tc.metric, i)
			}
		}
	}
	if snap.tel.boundBakeSamples.Value() == 0 {
		t.Error("no bound column was baked: no prune check ran")
	}
}

// TestEstimateBatchUntapedMatchesEstimate pins the reference mode: with no
// tapes there are no columns to sweep, so EstimateBatch must degrade to
// sequential full estimates — still bit-identical, never pruned (the bound
// needs the columns).
func TestEstimateBatchUntapedMatchesEstimate(t *testing.T) {
	in := richInputs(t)
	t.Run("untaped", func(t *testing.T) {
		snap, err := New(in, carbon.BestCase(), 11).Compile(nil, []time.Time{t0}, t0)
		if err != nil {
			t.Fatal(err)
		}
		snap.SetTapes(false)
		plans := batchPlanSet(in.d)
		assigns := make([][]int, len(plans))
		for i, p := range plans {
			if assigns[i], err = snap.Assign(p); err != nil {
				t.Fatal(err)
			}
		}
		got, err := snap.EstimateBatch(assigns, 0, &RowPrune{Threshold: []float64{0}})
		if err != nil {
			t.Fatal(err)
		}
		for i, est := range got {
			want, err := snap.Estimate(assigns[i], 0)
			if err != nil {
				t.Fatal(err)
			}
			if est == nil || *est != *want {
				t.Errorf("plan %d: fallback diverges (%+v vs %+v)", i, est, want)
			}
		}
	})
}
