package manager

import (
	"math"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/deployer"
	"caribou/internal/executor"
	"caribou/internal/metrics"
	"caribou/internal/montecarlo"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/solver"
	"caribou/internal/workloads"
)

var t0 = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

type stack struct {
	sched *simclock.Scheduler
	eng   *executor.Engine
	mm    *metrics.Manager
	solv  *solver.Solver
	dep   *deployer.Deployer
	mgr   *Manager
}

func newStack(t *testing.T, cfg Config) *stack {
	t.Helper()
	sched := simclock.New(t0)
	cat, err := region.NorthAmerica().Subset(region.EvaluationFour())
	if err != nil {
		t.Fatal(err)
	}
	src, err := carbon.NewSyntheticSource(1, t0.Add(-8*24*time.Hour), t0.Add(10*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	net := netmodel.New(cat)
	p, err := platform.New(platform.Options{Sched: sched, Catalogue: cat, Net: net, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wl := workloads.Text2SpeechCensoring()
	mm := metrics.New(wl.DAG, region.USEast1, cat, net, src, pricing.DefaultBook())
	eng, err := executor.New(executor.Options{
		Platform: p, Workload: wl, Home: region.USEast1, Seed: 1,
		OnComplete: func(r *platform.InvocationRecord) { mm.Ingest(r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	dep := deployer.New(eng, p)
	if err := dep.InitialDeploy(); err != nil {
		t.Fatal(err)
	}
	est := montecarlo.New(mm, carbon.BestCase(), 1)
	solv, err := solver.New(solver.Config{
		Inputs: mm, Estimator: est,
		Objective: solver.Objective{
			Priority:   solver.PriorityCarbon,
			Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(cfg, mm, solv, dep, region.USEast1, t0)
	eng.SetPlans(dep)
	return &stack{sched: sched, eng: eng, mm: mm, solv: solv, dep: dep, mgr: mgr}
}

func (s *stack) runTraffic(t *testing.T, n int, gap time.Duration) {
	t.Helper()
	start := s.sched.Now()
	for i := 0; i < n; i++ {
		s.eng.InvokeAt(start.Add(time.Duration(i)*gap), workloads.Small, func(err error) { t.Error(err) })
	}
	s.sched.Run()
}

func TestTickBeforeDueIsNoop(t *testing.T) {
	s := newStack(t, Config{})
	activated, err := s.mgr.Tick(t0.Add(time.Minute))
	if err != nil || activated {
		t.Errorf("activated=%v err=%v", activated, err)
	}
	if s.mgr.Solves() != 0 {
		t.Error("solved before check was due")
	}
}

func TestNoTrafficNoTokensNoSolve(t *testing.T) {
	s := newStack(t, Config{})
	s.sched.RunUntil(t0.Add(7 * time.Hour))
	activated, err := s.mgr.Tick(s.sched.Now())
	if err != nil {
		t.Fatal(err)
	}
	if activated || s.mgr.Solves() != 0 {
		t.Error("solve without traffic or initial tokens")
	}
	if s.mgr.st.Tokens() != 0 {
		t.Errorf("tokens = %v", s.mgr.st.Tokens())
	}
}

func TestTrafficEarnsTokensAndTriggersSolve(t *testing.T) {
	s := newStack(t, Config{})
	s.runTraffic(t, 300, 80*time.Second) // ~6.7 hours of traffic
	activated, err := s.mgr.Tick(s.sched.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !activated {
		t.Fatal("expected a solve and activation")
	}
	if s.mgr.Solves() != 1 {
		t.Errorf("solves = %d", s.mgr.Solves())
	}
	if s.mgr.OverheadGrams <= 0 {
		t.Error("overhead not accounted")
	}
	if s.dep.ActivePlan(s.sched.Now()) == nil {
		t.Error("no active plan after solve")
	}
}

func TestCheckExpiresPreviousPlan(t *testing.T) {
	s := newStack(t, Config{})
	s.runTraffic(t, 300, 80*time.Second)
	if _, err := s.mgr.Tick(s.sched.Now()); err != nil {
		t.Fatal(err)
	}
	if s.dep.ActivePlan(s.sched.Now()) == nil {
		t.Fatal("plan should be active")
	}
	// Next due check: the old plan is expired first; when the fresh
	// rollout fails, traffic must route home (no active plan) rather
	// than through the stale deployment.
	s.dep.FailDeploy = func(_ dag.NodeID, r region.ID) bool { return r != region.USEast1 }
	next := s.mgr.st.NextDue()
	s.sched.RunUntil(next.Add(time.Minute))
	activated, err := s.mgr.Tick(s.sched.Now())
	if err != nil {
		t.Fatal(err)
	}
	if activated {
		t.Error("activation despite failed rollout")
	}
	if s.dep.ActivePlan(s.sched.Now()) != nil {
		t.Error("stale plan not expired at token check")
	}
}

func TestCheckIntervalWithinBounds(t *testing.T) {
	s := newStack(t, Config{})
	s.runTraffic(t, 300, 80*time.Second)
	now := s.sched.Now()
	if _, err := s.mgr.Tick(now); err != nil {
		t.Fatal(err)
	}
	gap := s.mgr.st.NextDue().Sub(now)
	if gap < MinCheckInterval || gap > MaxCheckInterval {
		t.Errorf("next check gap = %v outside [%v, %v]", gap, MinCheckInterval, MaxCheckInterval)
	}
}

func TestSolveCostScalesHourly(t *testing.T) {
	s := newStack(t, Config{})
	hourly, daily := Window{MM: s.mm, Home: region.USEast1, Hourly: true}.Costs(t0)
	if hourly <= daily {
		t.Errorf("hourly %v should exceed daily %v", hourly, daily)
	}
	if hourly/daily < 20 || hourly/daily > 28 {
		t.Errorf("hourly/daily = %v, want ~24", hourly/daily)
	}
}

func TestInitialTokensEnableEarlySolve(t *testing.T) {
	s := newStack(t, Config{InitialTokens: 1e6})
	// A little traffic so the Metric Manager has data to model from.
	s.runTraffic(t, 100, time.Minute)
	s.sched.RunUntil(t0.Add(7 * time.Hour))
	activated, err := s.mgr.Tick(s.sched.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !activated {
		t.Error("initial token grant did not enable the first solve")
	}
}

func TestStabilityBackoffGrows(t *testing.T) {
	s := newStack(t, Config{InitialTokens: 1e9})
	s.runTraffic(t, 200, time.Minute)

	var gaps []time.Duration
	for i := 0; i < 3; i++ {
		next := s.mgr.st.NextDue()
		if next.After(s.sched.Now()) {
			s.sched.RunUntil(next.Add(time.Minute))
		}
		before := s.sched.Now()
		if _, err := s.mgr.Tick(before); err != nil {
			t.Fatal(err)
		}
		gaps = append(gaps, s.mgr.st.NextDue().Sub(before))
	}
	if s.mgr.Solves() < 2 {
		t.Fatalf("solves = %d; backoff test needs repeated solves", s.mgr.Solves())
	}
	if gaps[len(gaps)-1] <= gaps[0] {
		t.Errorf("check gaps did not grow with stable plans: %v", gaps)
	}
}

func TestOnSolveObserver(t *testing.T) {
	s := newStack(t, Config{})
	var seen []dag.HourlyPlans
	s.mgr.OnSolve = func(_ time.Time, plans dag.HourlyPlans, results []solver.Result) {
		seen = append(seen, plans)
		if len(results) == 0 {
			t.Error("no results passed to observer")
		}
	}
	s.runTraffic(t, 300, 80*time.Second)
	if _, err := s.mgr.Tick(s.sched.Now()); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Errorf("observer saw %d solves", len(seen))
	}
}

func TestConfigDefaults(t *testing.T) {
	// The values every -sim response byte and adaptive Fig 11 digest were
	// recorded under; they were Config's defaults while it had the fields.
	if MinCheckInterval != 6*time.Hour || MaxCheckInterval != 48*time.Hour || PlanValidity != 24*time.Hour {
		t.Errorf("intervals: %v %v %v", MinCheckInterval, MaxCheckInterval, PlanValidity)
	}
	if SolverMemoryMB != 1769 || SolverUtil != 0.95 || SolveSecondsPerEstimate != 276.0/(24*144) {
		t.Errorf("solver function: %v MB, util %v, %v s per estimate", SolverMemoryMB, SolverUtil, SolveSecondsPerEstimate)
	}
}

func TestDailyGranularityWhenBudgetIsTight(t *testing.T) {
	s := newStack(t, Config{})
	s.runTraffic(t, 60, time.Minute) // some data, few tokens
	now := s.sched.Now().Add(7 * time.Hour)
	s.sched.RunUntil(now)

	hourly, daily := Window{MM: s.mm, Home: region.USEast1, Hourly: true}.Costs(now)
	// Grant a budget that covers a daily solve but not an hourly one to a
	// manager starting now, so the warmup traffic lies outside its window
	// and the budget stays exactly there.
	s.mgr = New(Config{InitialTokens: (daily + hourly) / 2}, s.mm, s.solv, s.dep, region.USEast1, now)

	var resultCounts []int
	s.mgr.OnSolve = func(_ time.Time, _ dag.HourlyPlans, results []solver.Result) {
		resultCounts = append(resultCounts, len(results))
	}
	activated, err := s.mgr.Tick(now)
	if err != nil {
		t.Fatal(err)
	}
	if !activated {
		t.Fatal("expected a daily-granularity solve")
	}
	if len(resultCounts) != 1 || resultCounts[0] != 1 {
		t.Errorf("result counts = %v, want a single daily solve", resultCounts)
	}
	// The plan set reuses one plan for all hours.
	plan := s.dep.ActivePlan(now)
	if plan == nil {
		t.Fatal("no active plan")
	}
}

func TestHourlyGranularityWhenBudgetIsAmple(t *testing.T) {
	s := newStack(t, Config{InitialTokens: 1e9})
	s.runTraffic(t, 60, time.Minute)
	now := s.sched.Now().Add(7 * time.Hour)
	s.sched.RunUntil(now)

	var resultCounts []int
	s.mgr.OnSolve = func(_ time.Time, _ dag.HourlyPlans, results []solver.Result) {
		resultCounts = append(resultCounts, len(results))
	}
	if _, err := s.mgr.Tick(now); err != nil {
		t.Fatal(err)
	}
	if len(resultCounts) != 1 || resultCounts[0] != 24 {
		t.Errorf("result counts = %v, want one 24-hour solve", resultCounts)
	}
}

// TestFailedRolloutDebitsSolve pins that a completed solve is paid for
// whatever its rollout's outcome: the Migrator later activates the staged
// plans without another check, so a free failed rollout would be a free
// solve.
func TestFailedRolloutDebitsSolve(t *testing.T) {
	s := newStack(t, Config{})
	s.runTraffic(t, 300, 80*time.Second)
	s.dep.FailDeploy = func(_ dag.NodeID, r region.ID) bool { return r != region.USEast1 }
	now := s.sched.Now()

	// The expected balance is priced from the metric window directly, not
	// through Window, so the check stands apart from the code under test.
	before := s.mgr.st.Tokens()
	n := s.mm.InvocationsSince(t0)
	homeI, err := s.mm.IntensityAt(region.USEast1, now, now)
	if err != nil {
		t.Fatal(err)
	}
	minI := homeI
	for _, id := range s.mm.Catalogue().IDs() {
		v, err := s.mm.IntensityAt(id, now, now)
		if err != nil {
			t.Fatal(err)
		}
		minI = min(minI, v)
	}
	earned := TrafficTokens(n, s.mm.MeanRuntimeSince(t0), homeI, minI)
	cost := SolveCost(homeI, s.mm.DAG().Len(), s.mm.Catalogue().Len(), true)
	if before+earned < cost {
		cost = SolveCost(homeI, s.mm.DAG().Len(), s.mm.Catalogue().Len(), false)
	}

	activated, err := s.mgr.Tick(now)
	if err != nil {
		t.Fatal(err)
	}
	if activated || !s.dep.HasPending() {
		t.Fatalf("activated=%v pending=%v; the rollout should have failed and been staged", activated, s.dep.HasPending())
	}
	if s.mgr.Solves() != 1 {
		t.Fatalf("solves = %d", s.mgr.Solves())
	}
	if got, want := s.mgr.st.Tokens(), before+earned-cost; math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("tokens after a failed rollout = %v, want before + earned - cost = %v + %v - %v = %v", got, before, earned, cost, want)
	}
}
