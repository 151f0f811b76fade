package montecarlo

import (
	"math"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/stats"
)

var t0 = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

// fakeInputs is a deterministic Inputs implementation with fixed
// durations, sizes, and intensities — no learned data needed.
type fakeInputs struct {
	d         *dag.DAG
	cat       *region.Catalogue
	durations map[dag.NodeID]float64
	bytes     map[[2]dag.NodeID]float64
	probs     map[[2]dag.NodeID]float64
	intensity map[region.ID]float64
	output    map[dag.NodeID]float64
}

func (f *fakeInputs) DAG() *dag.DAG                { return f.d }
func (f *fakeInputs) Home() region.ID              { return region.USEast1 }
func (f *fakeInputs) Catalogue() *region.Catalogue { return f.cat }

func constDist(v float64) *stats.Distribution {
	d := stats.NewDistribution(4)
	d.Add(v)
	return d
}

func (f *fakeInputs) ExecDuration(n dag.NodeID, _ region.ID) (*stats.Distribution, error) {
	return constDist(f.durations[n]), nil
}
func (f *fakeInputs) CPUUtil(dag.NodeID) float64      { return 0.8 }
func (f *fakeInputs) MemoryMB(dag.NodeID) float64     { return 1769 }
func (f *fakeInputs) EntryBytes() *stats.Distribution { return constDist(1000) }
func (f *fakeInputs) EdgeBytes(from, to dag.NodeID) *stats.Distribution {
	if b, ok := f.bytes[[2]dag.NodeID{from, to}]; ok {
		return constDist(b)
	}
	return nil
}
func (f *fakeInputs) OutputBytes(n dag.NodeID) *stats.Distribution {
	if b, ok := f.output[n]; ok {
		return constDist(b)
	}
	return nil
}
func (f *fakeInputs) EdgeProbability(e dag.Edge) float64 {
	if p, ok := f.probs[[2]dag.NodeID{e.From, e.To}]; ok {
		return p
	}
	return 1
}
func (f *fakeInputs) TransferSeconds(a, b region.ID, bytes float64) float64 {
	if a == b {
		return 0.001
	}
	return 0.03 + bytes/80e6
}
func (f *fakeInputs) MessageOverheadSeconds() float64   { return 0.1 }
func (f *fakeInputs) KVAccessSeconds(region.ID) float64 { return 0.005 }
func (f *fakeInputs) CostBook() *pricing.Book           { return pricing.DefaultBook() }
func (f *fakeInputs) IntensityAt(r region.ID, _, _ time.Time) (float64, error) {
	return f.intensity[r], nil
}

func chainInputs(t *testing.T) *fakeInputs {
	t.Helper()
	d, err := dag.NewBuilder("chain").
		AddNode(dag.Node{ID: "a"}).
		AddNode(dag.Node{ID: "b"}).
		AddEdge("a", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &fakeInputs{
		d:         d,
		cat:       region.NorthAmerica(),
		durations: map[dag.NodeID]float64{"a": 2, "b": 3},
		bytes:     map[[2]dag.NodeID]float64{{"a", "b"}: 1e6},
		intensity: map[region.ID]float64{region.USEast1: 400, region.CACentral1: 35},
		output:    map[dag.NodeID]float64{"b": 5e5},
	}
}

func TestChainLatencyMatchesAnalytic(t *testing.T) {
	in := chainInputs(t)
	est := New(in, carbon.BestCase(), 1)
	plan := dag.NewHomePlan(in.d, region.USEast1)
	e, err := est.Estimate(plan, t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	// entry: kv 0.005 + overhead 0.1 + transfer 0.001 = 0.106
	// a: 2, edge: 0.1 + 0.001 = 0.101, b: 3 → total ≈ 5.207
	want := 0.106 + 2 + 0.101 + 3
	if math.Abs(e.LatencyMean-want) > 0.01 {
		t.Errorf("latency = %v, want ~%v", e.LatencyMean, want)
	}
	// Deterministic inputs: p95 equals mean.
	if math.Abs(e.LatencyP95-e.LatencyMean) > 1e-9 {
		t.Errorf("p95 %v != mean %v for deterministic inputs", e.LatencyP95, e.LatencyMean)
	}
	if !e.Converged || e.Samples != BatchSize {
		t.Errorf("converged=%v samples=%d", e.Converged, e.Samples)
	}
}

func TestCarbonComponentsAndRegionSensitivity(t *testing.T) {
	in := chainInputs(t)
	// With free transmission the carbon mean is the execution carbon alone.
	execOnly := New(in, carbon.TransmissionModel{}, 1)
	home := dag.NewHomePlan(in.d, region.USEast1)
	eHome, err := execOnly.Estimate(home, t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	green := dag.NewHomePlan(in.d, region.CACentral1)
	eGreen, err := execOnly.Estimate(green, t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if eGreen.CarbonMean >= eHome.CarbonMean {
		t.Errorf("green exec carbon %v >= home %v", eGreen.CarbonMean, eHome.CarbonMean)
	}
	// Analytic execution carbon at home: two stages, 5 s total.
	wantExec := carbon.ExecutionCarbon(400, 1769, 2, 0.8) + carbon.ExecutionCarbon(400, 1769, 3, 0.8)
	if math.Abs(eHome.CarbonMean-wantExec)/wantExec > 0.01 {
		t.Errorf("exec carbon = %v, want %v", eHome.CarbonMean, wantExec)
	}
	eBest, err := New(in, carbon.BestCase(), 1).Estimate(home, t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if eBest.CarbonMean <= eHome.CarbonMean {
		t.Error("transmission carbon missing")
	}
	if eBest.CostMean <= 0 {
		t.Error("cost missing")
	}
}

// TestWorstCaseChargesOffloadedPlanMore compares one plan's carbon under
// the two accounting scenarios: the execution draws are the same, so only
// transmission carbon differs.
func TestWorstCaseChargesOffloadedPlanMore(t *testing.T) {
	in := chainInputs(t)
	plan := dag.NewHomePlan(in.d, region.CACentral1) // all transfers cross-region (entry/output/KV home)
	best := New(in, carbon.BestCase(), 1)
	worst := New(in, carbon.WorstCase(), 1)
	eb, err := best.Estimate(plan, t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := worst.Estimate(plan, t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if ew.CarbonMean <= eb.CarbonMean {
		t.Errorf("worst carbon %v should exceed best carbon %v for offloaded plan", ew.CarbonMean, eb.CarbonMean)
	}
}

func TestConditionalBranchProbabilityScalesLatency(t *testing.T) {
	d, err := dag.NewBuilder("cond").
		AddNode(dag.Node{ID: "a"}).
		AddNode(dag.Node{ID: "slow"}).
		AddConditionalEdge("a", "slow", 0.5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := chainInputs(t)
	in.d = d
	in.durations = map[dag.NodeID]float64{"a": 1, "slow": 9}
	in.bytes = map[[2]dag.NodeID]float64{}
	in.output = map[dag.NodeID]float64{}

	run := func(p float64) float64 {
		in.probs = map[[2]dag.NodeID]float64{{"a", "slow"}: p}
		est := New(in, carbon.BestCase(), 1)
		e, err := est.Estimate(dag.NewHomePlan(d, region.USEast1), t0, t0)
		if err != nil {
			t.Fatal(err)
		}
		return e.LatencyMean
	}
	never, half, always := run(0), run(0.5), run(1)
	if !(never < half && half < always) {
		t.Errorf("latency not monotone in branch probability: %v %v %v", never, half, always)
	}
	// With p=0 the slow node never runs: latency ~1.1s; with p=1 ~10.2s.
	if never > 2 || always < 9 {
		t.Errorf("bounds: never=%v always=%v", never, always)
	}
	if math.Abs(half-(never+always)/2) > 1 {
		t.Errorf("half = %v, want near midpoint of %v and %v", half, never, always)
	}
}

func TestSyncNodeWaitsForSlowestBranch(t *testing.T) {
	d, err := dag.NewBuilder("join").
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
	in := chainInputs(t)
	in.d = d
	in.durations = map[dag.NodeID]float64{"s": 1, "fast": 1, "slow": 6, "join": 1}
	in.bytes = map[[2]dag.NodeID]float64{
		{"fast", "join"}: 1e4,
		{"slow", "join"}: 1e4,
	}
	in.output = map[dag.NodeID]float64{}
	est := New(in, carbon.BestCase(), 1)
	e, err := est.Estimate(dag.NewHomePlan(d, region.USEast1), t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	// Critical path through slow: ≥ 1 + 6 + 1 = 8 s plus overheads.
	if e.LatencyMean < 8 || e.LatencyMean > 10 {
		t.Errorf("join latency = %v, want ~8.5", e.LatencyMean)
	}
}

func TestPlanCoverageValidation(t *testing.T) {
	in := chainInputs(t)
	est := New(in, carbon.BestCase(), 1)
	if _, err := est.Estimate(dag.Plan{"a": region.USEast1}, t0, t0); err == nil {
		t.Error("want error for incomplete plan")
	}
}

func TestEstimateDeterministicForSeed(t *testing.T) {
	in := chainInputs(t)
	plan := dag.NewHomePlan(in.d, region.USEast1)
	a, err := New(in, carbon.BestCase(), 7).Estimate(plan, t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(in, carbon.BestCase(), 7).Estimate(plan, t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if a.LatencyMean != b.LatencyMean || a.CarbonMean != b.CarbonMean {
		t.Error("same seed diverged")
	}
}

// TestEstimateIsCompilePlusEstimatePlan pins Estimator.Estimate to the two
// calls it is made of: a one-instant Snapshot over the whole catalogue and
// one EstimatePlan at hour 0, bit for bit.
func TestEstimateIsCompilePlusEstimatePlan(t *testing.T) {
	for _, in := range []*fakeInputs{chainInputs(t), richInputs(t)} {
		est := New(in, carbon.WorstCase(), 9)
		at := t0.Add(5 * time.Hour)
		for _, r := range []region.ID{region.USEast1, region.CACentral1} {
			plan := dag.NewHomePlan(in.d, r)
			got, err := est.Estimate(plan, at, t0)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := est.Compile(nil, []time.Time{at}, t0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := snap.EstimatePlan(plan, 0)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Errorf("%s in %s: Estimate %+v, Compile+EstimatePlan %+v", in.d.Name(), r, got, want)
			}
		}
	}
}

func TestSamplesBoundedByMax(t *testing.T) {
	in := chainInputs(t)
	est := New(in, carbon.BestCase(), 1)
	e, err := est.Estimate(dag.NewHomePlan(in.d, region.USEast1), t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Samples > MaxSamples {
		t.Errorf("samples = %d exceeds max %d", e.Samples, MaxSamples)
	}
}

func TestConditionalEdgeIntoSyncNode(t *testing.T) {
	// start -> always -> join; start ->(p) maybe -> join. With p=0 the
	// join must still fire (skip annotation semantics) and latency must
	// track only the unconditional branch.
	d, err := dag.NewBuilder("condsync").
		AddNode(dag.Node{ID: "start"}).
		AddNode(dag.Node{ID: "always"}).
		AddNode(dag.Node{ID: "maybe"}).
		AddNode(dag.Node{ID: "join"}).
		AddEdge("start", "always").
		AddConditionalEdge("start", "maybe", 0.5).
		AddEdge("always", "join").
		AddEdge("maybe", "join").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := chainInputs(t)
	in.d = d
	in.durations = map[dag.NodeID]float64{"start": 1, "always": 1, "maybe": 8, "join": 1}
	in.bytes = map[[2]dag.NodeID]float64{
		{"always", "join"}: 1e4,
		{"maybe", "join"}:  1e4,
	}
	in.output = map[dag.NodeID]float64{}

	run := func(p float64) *Estimate {
		in.probs = map[[2]dag.NodeID]float64{{"start", "maybe"}: p}
		est := New(in, carbon.BestCase(), 1)
		e, err := est.Estimate(dag.NewHomePlan(d, region.USEast1), t0, t0)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	never := run(0)
	always := run(1)
	if never.LatencyMean > 4 {
		t.Errorf("p=0 latency %v; join should not wait for the skipped branch", never.LatencyMean)
	}
	if always.LatencyMean < 10 {
		t.Errorf("p=1 latency %v; join must wait for the slow branch", always.LatencyMean)
	}
	if never.CarbonMean >= always.CarbonMean {
		t.Errorf("skipped branch should save carbon: %v vs %v", never.CarbonMean, always.CarbonMean)
	}
}
