package solver

import (
	"testing"
	"testing/quick"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/montecarlo"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/stats"
)

var t0 = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

// fakeInputs mirrors the montecarlo test double: deterministic durations
// and per-region intensities so solver decisions are fully predictable.
type fakeInputs struct {
	d         *dag.DAG
	cat       *region.Catalogue
	durations map[dag.NodeID]float64
	bytes     map[[2]dag.NodeID]float64
	intensity map[region.ID]float64
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
func (f *fakeInputs) EntryBytes() *stats.Distribution { return constDist(1e3) }
func (f *fakeInputs) EdgeBytes(from, to dag.NodeID) *stats.Distribution {
	if b, ok := f.bytes[[2]dag.NodeID{from, to}]; ok {
		return constDist(b)
	}
	return nil
}
func (f *fakeInputs) OutputBytes(dag.NodeID) *stats.Distribution { return nil }
func (f *fakeInputs) EdgeProbability(dag.Edge) float64           { return 1 }
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

func fourRegionCat(t *testing.T) *region.Catalogue {
	t.Helper()
	cat, err := region.NorthAmerica().Subset(region.EvaluationFour())
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func defaultIntensity() map[region.ID]float64 {
	return map[region.ID]float64{
		region.USEast1:    410,
		region.USWest1:    380,
		region.USWest2:    400,
		region.CACentral1: 35,
	}
}

func chainInputs(t *testing.T, n int) *fakeInputs {
	t.Helper()
	b := dag.NewBuilder("chain")
	durations := map[dag.NodeID]float64{}
	var prev dag.NodeID
	for i := 0; i < n; i++ {
		id := dag.NodeID(string(rune('a' + i)))
		b.AddNode(dag.Node{ID: id})
		durations[id] = 2
		if prev != "" {
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
		cat:       fourRegionCat(t),
		durations: durations,
		bytes:     map[[2]dag.NodeID]float64{},
		intensity: defaultIntensity(),
	}
}

func newSolver(t *testing.T, in montecarlo.Inputs, obj Objective, cons region.Constraint) *Solver {
	t.Helper()
	s, err := New(Config{
		Inputs:     in,
		Estimator:  montecarlo.New(in, carbon.BestCase(), 1),
		Objective:  obj,
		Constraint: cons,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// estimate evaluates a single assignment at hour h through the memo.
func (c *search) estimate(assign []int, h int) (*montecarlo.Estimate, error) {
	plans, err := c.evalAll([][]int{assign}, h, nil)
	if err != nil {
		return nil, err
	}
	return plans[0].hours[h].est, nil
}

func TestExhaustiveFindsGreenestRegion(t *testing.T) {
	in := chainInputs(t, 2) // 4^2 = 16 plans → exhaustive path
	s := newSolver(t, in, Objective{Priority: PriorityCarbon}, region.Constraint{})
	res, err := s.SolveOne(t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	for n, r := range res.Plan {
		if r != region.CACentral1 {
			t.Errorf("stage %s in %s, want ca-central-1 with no tolerances", n, r)
		}
	}
}

func TestHBSSFindsLowCarbonPlan(t *testing.T) {
	in := chainInputs(t, 6) // 4^6 = 4096 → HBSS path
	s := newSolver(t, in, Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(50)}}, region.Constraint{})
	home := dag.NewHomePlan(in.d, region.USEast1)
	homeEst, err := s.est.Estimate(home, t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveOne(t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.CarbonMean >= homeEst.CarbonMean {
		t.Errorf("HBSS did not improve on home: %v vs %v", res.Estimate.CarbonMean, homeEst.CarbonMean)
	}
	// Most stages should land in the greenest region.
	green := 0
	for _, r := range res.Plan {
		if r == region.CACentral1 {
			green++
		}
	}
	if green < 4 {
		t.Errorf("only %d of 6 stages in ca-central-1: %v", green, res.Plan)
	}
}

func TestTightToleranceKeepsHome(t *testing.T) {
	in := chainInputs(t, 2)
	// Zero tolerance: any plan slower than home p95 is rejected; since
	// offloading adds network time, home must win.
	s := newSolver(t, in, Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(0)}}, region.Constraint{})
	res, err := s.SolveOne(t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	for n, r := range res.Plan {
		if r != region.USEast1 {
			t.Errorf("stage %s offloaded to %s under zero tolerance", n, r)
		}
	}
}

func TestConstraintsRestrictEligibility(t *testing.T) {
	in := chainInputs(t, 2)
	s := newSolver(t, in, Objective{Priority: PriorityCarbon},
		region.Constraint{AllowedCountries: []string{"US"}})
	res, err := s.SolveOne(t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	cat := in.Catalogue()
	for n, rid := range res.Plan {
		r, _ := cat.Get(rid)
		if r.Country != "US" {
			t.Errorf("stage %s assigned to %s despite US-only constraint", n, rid)
		}
	}
	// us-west-1 has the lowest US intensity in the fixture.
	for _, rid := range res.Plan {
		if rid != region.USWest1 {
			t.Errorf("expected us-west-1 as greenest US region, got %s", rid)
		}
	}
}

func TestFunctionLevelPinRespected(t *testing.T) {
	in := chainInputs(t, 2)
	// Pin stage "a" to the home region at the function level.
	d, err := dag.NewBuilder("pinned").
		AddNode(dag.Node{ID: "a", Constraint: region.Constraint{AllowedRegions: []region.ID{region.USEast1}}}).
		AddNode(dag.Node{ID: "b"}).
		AddEdge("a", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in.d = d
	s := newSolver(t, in, Objective{Priority: PriorityCarbon}, region.Constraint{})
	res, err := s.SolveOne(t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan["a"] != region.USEast1 {
		t.Errorf("pinned stage moved to %s", res.Plan["a"])
	}
	if res.Plan["b"] != region.CACentral1 {
		t.Errorf("free stage should offload, got %s", res.Plan["b"])
	}
}

func TestNoEligibleRegionError(t *testing.T) {
	in := chainInputs(t, 2)
	if _, err := New(Config{
		Inputs:     in,
		Estimator:  montecarlo.New(in, carbon.BestCase(), 1),
		Constraint: region.Constraint{AllowedProviders: []string{"azure"}},
	}); err == nil {
		t.Error("want error when nothing is eligible")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("want error for missing dependencies")
	}
}

func TestSolveCoarse(t *testing.T) {
	in := chainInputs(t, 3)
	s := newSolver(t, in, Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(50)}}, region.Constraint{})
	res, err := s.SolveCoarse(t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsSingleRegion() {
		t.Errorf("coarse plan uses multiple regions: %v", res.Plan)
	}
	if res.Plan["a"] != region.CACentral1 {
		t.Errorf("coarse plan in %s, want greenest", res.Plan["a"])
	}
}

func TestSolveHourlyProducesAllHours(t *testing.T) {
	in := chainInputs(t, 2)
	s := newSolver(t, in, Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(50)}}, region.Constraint{})
	plans, results, err := s.SolveHourly(t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 24 {
		t.Fatalf("results = %d", len(results))
	}
	for h, p := range plans {
		if len(p) != in.d.Len() {
			t.Errorf("hour %d plan covers %d stages", h, len(p))
		}
	}
}

func TestPriorityChangesMetric(t *testing.T) {
	in := chainInputs(t, 2)
	// us-west-1 is the costliest region; with cost priority and a large
	// cost advantage at home-ish regions, the solver must not pick it.
	sCost := newSolver(t, in, Objective{Priority: PriorityCost}, region.Constraint{})
	res, err := sCost.SolveOne(t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Plan {
		if r == region.USWest1 {
			t.Errorf("cost priority picked the costliest region")
		}
	}
	// Latency priority keeps everything home (any move adds latency).
	sLat := newSolver(t, in, Objective{Priority: PriorityLatency}, region.Constraint{})
	res, err = sLat.SolveOne(t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Plan {
		if r != region.USEast1 {
			t.Errorf("latency priority offloaded to %s", r)
		}
	}
}

func TestMetricSelection(t *testing.T) {
	r := Result{Estimate: &montecarlo.Estimate{CarbonMean: 1, CostMean: 2, LatencyMean: 3}}
	if r.Metric(PriorityCarbon) != 1 || r.Metric(PriorityCost) != 2 || r.Metric(PriorityLatency) != 3 {
		t.Error("metric selection broken")
	}
}

func TestPriorityString(t *testing.T) {
	if PriorityCarbon.String() != "carbon" || PriorityCost.String() != "cost" || PriorityLatency.String() != "latency" {
		t.Error("priority strings wrong")
	}
	if Priority(9).String() == "" {
		t.Error("unknown priority should render")
	}
}

func TestQuickSolvedPlansAlwaysSatisfyConstraints(t *testing.T) {
	in := chainInputs(t, 3)
	cat := in.Catalogue()
	ids := cat.IDs()
	f := func(denyIdx uint8, seed int16) bool {
		deny := ids[int(denyIdx)%len(ids)]
		if deny == region.USEast1 {
			return true // home must stay deployable
		}
		cons := region.Constraint{DisallowedRegions: []region.ID{deny}}
		s, err := New(Config{
			Inputs:     in,
			Estimator:  montecarlo.New(in, carbon.BestCase(), int64(seed)),
			Objective:  Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(50)}},
			Constraint: cons,
			Seed:       int64(seed),
		})
		if err != nil {
			return false
		}
		res, err := s.SolveOne(t0, t0)
		if err != nil {
			return false
		}
		return res.Plan.Validate(in.d, cat, cons) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxIterationsCapsHBSS(t *testing.T) {
	in := chainInputs(t, 6)
	s, err := New(Config{
		Inputs:        in,
		Estimator:     montecarlo.New(in, carbon.BestCase(), 1),
		Objective:     Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(50)}},
		Seed:          1,
		MaxIterations: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveOne(t0, t0); err != nil {
		t.Fatal(err)
	}
}

func TestCostTolerance(t *testing.T) {
	in := chainInputs(t, 2)
	// A strict cost ceiling at the home level can never reject the home
	// plan itself, and any accepted plan must respect it.
	s := newSolver(t, in, Objective{
		Priority:   PriorityLatency,
		Tolerances: Tolerances{Cost: Tol(0)},
	}, region.Constraint{})
	res, err := s.SolveOne(t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	home := dag.NewHomePlan(in.d, region.USEast1)
	homeEst, err := s.est.Estimate(home, t0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.CostP95 > homeEst.CostP95*1.0001 {
		t.Errorf("cost tolerance violated: %v > %v", res.Estimate.CostP95, homeEst.CostP95)
	}
}
