package montecarlo

import (
	"maps"
	"math"
	"sync"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/stats"
)

// richInputs builds a workflow exercising every estimator code path:
// conditional branches, synchronization nodes, and terminal write-back on
// a node that is itself a sync node ("tail" has two predecessors and an
// output distribution, like Text2Speech's final censoring stage) — the
// combination carries both the sync and output step flags through the
// tape compiler, so every parity test covers it.
func richInputs(t *testing.T) *fakeInputs {
	t.Helper()
	d, err := dag.NewBuilder("rich").
		AddNode(dag.Node{ID: "start"}).
		AddNode(dag.Node{ID: "left"}).
		AddNode(dag.Node{ID: "right"}).
		AddNode(dag.Node{ID: "join"}).
		AddNode(dag.Node{ID: "tail"}).
		AddConditionalEdge("start", "left", 0.7).
		AddEdge("start", "right").
		AddEdge("left", "join").
		AddEdge("right", "join").
		AddEdge("join", "tail").
		AddEdge("right", "tail").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &fakeInputs{
		d:   d,
		cat: region.NorthAmerica(),
		durations: map[dag.NodeID]float64{
			"start": 1, "left": 2, "right": 3, "join": 1.5, "tail": 0.5,
		},
		bytes: map[[2]dag.NodeID]float64{
			{"start", "left"}: 2e6, {"start", "right"}: 1e6,
			{"left", "join"}: 3e6, {"right", "join"}: 5e5,
			{"right", "tail"}: 7e5,
		},
		probs:     map[[2]dag.NodeID]float64{{"start", "left"}: 0.7},
		intensity: map[region.ID]float64{region.USEast1: 400, region.USWest2: 250, region.CACentral1: 35},
		output:    map[dag.NodeID]float64{"tail": 4e5},
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestSnapshotMatchesEstimator pins the snapshot path to the per-event oracle:
// same seed, same solve instant, same plan must produce the same estimate
// up to the affine transfer-time approximation (≤ relative 1e-9).
func TestSnapshotMatchesEstimator(t *testing.T) {
	in := richInputs(t)
	est := New(in, carbon.BestCase(), 7)
	hours := []time.Time{t0, t0.Add(time.Hour)}
	snap, err := est.Compile(nil, hours, t0)
	if err != nil {
		t.Fatal(err)
	}
	plans := []dag.Plan{
		dag.NewHomePlan(in.d, region.USEast1),
		{"start": region.USEast1, "left": region.CACentral1, "right": region.USWest2,
			"join": region.CACentral1, "tail": region.USEast1},
	}
	for _, plan := range plans {
		for h, at := range hours {
			want, err := est.oracleEstimate(plan, at, t0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := snap.EstimatePlan(plan, h)
			if err != nil {
				t.Fatal(err)
			}
			if got.Samples != want.Samples || got.Converged != want.Converged {
				t.Fatalf("plan %v hour %d: samples/converged %d/%v vs %d/%v",
					plan, h, got.Samples, got.Converged, want.Samples, want.Converged)
			}
			pairs := [][2]float64{
				{got.LatencyMean, want.LatencyMean}, {got.LatencyP95, want.LatencyP95},
				{got.CostMean, want.CostMean}, {got.CostP95, want.CostP95},
				{got.CarbonMean, want.CarbonMean}, {got.CarbonP95, want.CarbonP95},
			}
			for i, p := range pairs {
				if relDiff(p[0], p[1]) > 1e-9 {
					t.Errorf("plan %v hour %d metric %d: snapshot %v vs estimator %v", plan, h, i, p[0], p[1])
				}
			}
		}
	}
}

// countingInputs wraps an Inputs and counts every interface-method call.
type countingInputs struct {
	in    Inputs
	calls int
}

func (c *countingInputs) DAG() *dag.DAG                { c.calls++; return c.in.DAG() }
func (c *countingInputs) Home() region.ID              { c.calls++; return c.in.Home() }
func (c *countingInputs) Catalogue() *region.Catalogue { c.calls++; return c.in.Catalogue() }
func (c *countingInputs) ExecDuration(n dag.NodeID, r region.ID) (*stats.Distribution, error) {
	c.calls++
	return c.in.ExecDuration(n, r)
}
func (c *countingInputs) CPUUtil(n dag.NodeID) float64  { c.calls++; return c.in.CPUUtil(n) }
func (c *countingInputs) MemoryMB(n dag.NodeID) float64 { c.calls++; return c.in.MemoryMB(n) }
func (c *countingInputs) EdgeBytes(from, to dag.NodeID) *stats.Distribution {
	c.calls++
	return c.in.EdgeBytes(from, to)
}
func (c *countingInputs) EntryBytes() *stats.Distribution { c.calls++; return c.in.EntryBytes() }
func (c *countingInputs) OutputBytes(n dag.NodeID) *stats.Distribution {
	c.calls++
	return c.in.OutputBytes(n)
}
func (c *countingInputs) EdgeProbability(e dag.Edge) float64 {
	c.calls++
	return c.in.EdgeProbability(e)
}
func (c *countingInputs) TransferSeconds(a, b region.ID, bytes float64) float64 {
	c.calls++
	return c.in.TransferSeconds(a, b, bytes)
}
func (c *countingInputs) MessageOverheadSeconds() float64 {
	c.calls++
	return c.in.MessageOverheadSeconds()
}
func (c *countingInputs) KVAccessSeconds(r region.ID) float64 {
	c.calls++
	return c.in.KVAccessSeconds(r)
}
func (c *countingInputs) CostBook() *pricing.Book { c.calls++; return c.in.CostBook() }
func (c *countingInputs) IntensityAt(r region.ID, at, now time.Time) (float64, error) {
	c.calls++
	return c.in.IntensityAt(r, at, now)
}

// TestSnapshotEliminatesInterfaceCallsFromSampling verifies the
// compile-once contract: after Compile, evaluating plans makes zero
// Inputs method calls — the inner sampling loop reads only baked slices.
func TestSnapshotEliminatesInterfaceCallsFromSampling(t *testing.T) {
	counting := &countingInputs{in: richInputs(t)}
	snap, err := New(counting, carbon.BestCase(), 1).Compile(nil, []time.Time{t0}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if counting.calls == 0 {
		t.Fatal("compile should consult the Inputs")
	}
	counting.calls = 0
	plan := dag.Plan{"start": region.USEast1, "left": region.CACentral1, "right": region.USWest2,
		"join": region.CACentral1, "tail": region.USEast1}
	if _, err := snap.EstimatePlan(plan, 0); err != nil {
		t.Fatal(err)
	}
	if counting.calls != 0 {
		t.Errorf("snapshot estimate made %d Inputs calls, want 0", counting.calls)
	}
}

// TestSnapshotConcurrentEstimatesAgree drives the same snapshot from many
// goroutines (run with -race in `make verify`): estimates must be
// identical regardless of interleaving, unlike the Inputs themselves, whose
// lazily-sorted distributions forbid sharing.
func TestSnapshotConcurrentEstimatesAgree(t *testing.T) {
	in := richInputs(t)
	est := New(in, carbon.BestCase(), 3)
	snap, err := est.Compile(nil, []time.Time{t0}, t0)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := snap.Assign(dag.NewHomePlan(in.d, region.USEast1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := snap.Estimate(assign, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*Estimate, 8)
	errs := make([]error, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = snap.Estimate(assign, 0)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if *got[i] != *want {
			t.Errorf("goroutine %d estimate diverged: %+v vs %+v", i, got[i], want)
		}
	}
}

func TestSnapshotValidation(t *testing.T) {
	in := richInputs(t)
	est := New(in, carbon.BestCase(), 1)
	if _, err := est.Compile(nil, nil, t0); err == nil {
		t.Error("want error for empty solve window")
	}
	snap, err := est.Compile([]region.ID{region.USEast1, region.CACentral1}, []time.Time{t0}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Estimate([]int{0}, 0); err == nil {
		t.Error("want error for short assignment")
	}
	if _, err := snap.Estimate(snap.HomeAssign(), 5); err == nil {
		t.Error("want error for out-of-window hour")
	}
	bad := snap.HomeAssign()
	bad[0] = 99
	if _, err := snap.Estimate(bad, 0); err == nil {
		t.Error("want error for out-of-range region index")
	}
	if _, err := snap.Assign(dag.Plan{"start": "nope"}); err == nil {
		t.Error("want error for plan missing stages")
	}
	if _, err := snap.EstimatePlan(dag.NewHomePlan(in.d, region.USWest2), 0); err == nil {
		t.Error("want error for region outside the interned set")
	}
	// Round trip: PlanOf(Assign(p)) == p.
	p := dag.Plan{"start": region.USEast1, "left": region.CACentral1, "right": region.USEast1,
		"join": region.CACentral1, "tail": region.USEast1}
	assign, err := snap.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(snap.PlanOf(assign), p) {
		t.Errorf("round trip mangled plan: %v", snap.PlanOf(assign))
	}
}
