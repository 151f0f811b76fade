package executor

import (
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/workloads"
)

var testStart = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

func newTestEnv(t testing.TB) (*simclock.Scheduler, *platform.Platform) {
	t.Helper()
	return newTestEnvWith(t, platform.Options{})
}

// newTestEnvWith is newTestEnv with the caller's broker and concurrency
// options.
func newTestEnvWith(t testing.TB, opts platform.Options) (*simclock.Scheduler, *platform.Platform) {
	t.Helper()
	sched := simclock.New(testStart)
	cat := region.NorthAmerica()
	opts.Sched, opts.Catalogue, opts.Net, opts.Seed = sched, cat, netmodel.New(cat), 42
	p, err := platform.New(opts)
	if err != nil {
		t.Fatalf("platform.New: %v", err)
	}
	return sched, p
}

func runInvocations(t *testing.T, e *Engine, sched *simclock.Scheduler, n int, class workloads.InputClass, gap time.Duration) []*platform.InvocationRecord {
	t.Helper()
	var recs []*platform.InvocationRecord
	for i := 0; i < n; i++ {
		e.InvokeAt(sched.Now().Add(time.Duration(i)*gap), class, func(err error) {
			t.Errorf("invoke: %v", err)
		})
	}
	sched.Run()
	return recs
}

func newEngine(t *testing.T, p *platform.Platform, wl *workloads.Workload, mode Mode, plans PlanSource, sink *[]*platform.InvocationRecord) *Engine {
	t.Helper()
	e, err := New(Options{
		Platform: p, Workload: wl, Home: region.USEast1, Mode: mode, Seed: 7,
		OnComplete: func(r *platform.InvocationRecord) { *sink = append(*sink, r) },
	})
	if err != nil {
		t.Fatalf("executor.New: %v", err)
	}
	e.SetPlans(plans)
	if err := e.DeployHome(); err != nil {
		t.Fatalf("DeployHome: %v", err)
	}
	return e
}

func TestCaribouHomeExecutionCompletes(t *testing.T) {
	for _, wl := range workloads.All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			sched, p := newTestEnv(t)
			var recs []*platform.InvocationRecord
			e := newEngine(t, p, wl, ModeCaribou, HomeOnly{}, &recs)
			const n = 30
			runInvocations(t, e, sched, n, workloads.Small, time.Minute)
			if len(recs) != n {
				t.Fatalf("completed %d of %d invocations", len(recs), n)
			}
			if e.Live() != 0 {
				t.Fatalf("%d invocations still live", e.Live())
			}
			for _, r := range recs {
				if !r.Succeeded {
					t.Errorf("invocation %d failed", r.ID)
				}
				if r.ServiceTime() <= 0 {
					t.Errorf("invocation %d: non-positive service time %v", r.ID, r.ServiceTime())
				}
				if len(r.Executions) == 0 {
					t.Errorf("invocation %d: no executions", r.ID)
				}
				for _, ex := range r.Executions {
					if ex.Region != region.USEast1 {
						t.Errorf("invocation %d: node %s ran in %s under home-only plan", r.ID, ex.Node, ex.Region)
					}
				}
			}
		})
	}
}

func TestSyncNodeExecutesExactlyOnce(t *testing.T) {
	sched, p := newTestEnv(t)
	wl := workloads.Text2SpeechCensoring()
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, wl, ModeCaribou, HomeOnly{}, &recs)
	const n = 60
	runInvocations(t, e, sched, n, workloads.Small, time.Minute)
	if len(recs) != n {
		t.Fatalf("completed %d of %d", len(recs), n)
	}
	censored := 0
	for _, r := range recs {
		count := map[dag.NodeID]int{}
		for _, ex := range r.Executions {
			count[ex.Node]++
		}
		for node, c := range count {
			if c != 1 {
				t.Errorf("invocation %d: node %s executed %d times", r.ID, node, c)
			}
		}
		if count["compress"] != 1 {
			t.Errorf("invocation %d: sync node compress executed %d times", r.ID, count["compress"])
		}
		for _, always := range []dag.NodeID{"validate", "text2speech", "conversion", "profanity"} {
			if count[always] != 1 {
				t.Errorf("invocation %d: node %s executed %d times", r.ID, always, count[always])
			}
		}
		if count["censor"] > 0 {
			censored++
		}
	}
	// The conditional edge has probability 0.5; with 60 trials the count
	// should be nowhere near the extremes.
	if censored < 15 || censored > 45 {
		t.Errorf("censor ran in %d of %d invocations; want near half", censored, n)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		sched, p := newTestEnv(t)
		wl := workloads.VideoAnalytics()
		var recs []*platform.InvocationRecord
		e := newEngine(t, p, wl, ModeCaribou, HomeOnly{}, &recs)
		runInvocations(t, e, sched, 10, workloads.Large, time.Minute)
		var out []time.Duration
		for _, r := range recs {
			out = append(out, r.ServiceTime())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPlanRoutingOffloadsStages(t *testing.T) {
	sched, p := newTestEnv(t)
	wl := workloads.Text2SpeechCensoring()
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, wl, ModeCaribou, nil, &recs)

	plan := dag.NewHomePlan(wl.DAG, region.USEast1)
	plan["profanity"] = region.CACentral1
	plan["censor"] = region.CACentral1
	for node, r := range plan {
		if _, err := e.EnsureDeployment(node, r); err != nil {
			t.Fatalf("EnsureDeployment(%s, %s): %v", node, r, err)
		}
	}
	e.plans = StaticPlans{Hourly: dag.Uniform(plan)}
	e.benchFr = 0 // make routing deterministic for the assertion

	const n = 20
	runInvocations(t, e, sched, n, workloads.Small, time.Minute)
	if len(recs) != n {
		t.Fatalf("completed %d of %d", len(recs), n)
	}
	offloaded := 0
	for _, r := range recs {
		for _, ex := range r.Executions {
			switch ex.Node {
			case "profanity", "censor":
				if ex.Region == region.CACentral1 {
					offloaded++
				} else {
					t.Errorf("node %s ran in %s, plan says ca-central-1", ex.Node, ex.Region)
				}
			default:
				if ex.Region != region.USEast1 {
					t.Errorf("node %s ran in %s, plan says us-east-1", ex.Node, ex.Region)
				}
			}
		}
	}
	if offloaded == 0 {
		t.Fatal("no stage was offloaded despite the plan")
	}
}

func TestFallbackToHomeWhenNotDeployed(t *testing.T) {
	sched, p := newTestEnv(t)
	wl := workloads.DNAVisualization()
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, wl, ModeCaribou, nil, &recs)

	// Plan points at a region with no deployment: traffic must fall back
	// to home rather than being routed through an invalid deployment.
	plan := dag.NewHomePlan(wl.DAG, region.USWest2)
	e.plans = StaticPlans{Hourly: dag.Uniform(plan)}
	e.benchFr = 0

	runInvocations(t, e, sched, 5, workloads.Small, time.Minute)
	if len(recs) != 5 {
		t.Fatalf("completed %d of 5", len(recs))
	}
	for _, r := range recs {
		for _, ex := range r.Executions {
			if ex.Region != region.USEast1 {
				t.Errorf("ran in %s; want home fallback us-east-1", ex.Region)
			}
		}
	}
}

func TestOrchestratorOverheadOrdering(t *testing.T) {
	// Step Functions must be fastest; Caribou must be within a few
	// percent of plain SNS (§9.6).
	mean := func(mode Mode) float64 {
		sched, p := newTestEnv(t)
		wl := workloads.ImageProcessing()
		var recs []*platform.InvocationRecord
		e := newEngine(t, p, wl, mode, HomeOnly{}, &recs)
		runInvocations(t, e, sched, 40, workloads.Small, time.Minute)
		if len(recs) != 40 {
			t.Fatalf("mode %v: completed %d of 40", mode, len(recs))
		}
		var sum float64
		for _, r := range recs {
			sum += r.ServiceTime().Seconds()
		}
		return sum / float64(len(recs))
	}
	sf, sns, cb := mean(ModeStepFunctions), mean(ModePlainSNS), mean(ModeCaribou)
	if !(sf < sns) {
		t.Errorf("Step Functions (%.3fs) should beat SNS (%.3fs)", sf, sns)
	}
	if cb < sns {
		t.Errorf("Caribou (%.3fs) should not beat plain SNS (%.3fs)", cb, sns)
	}
	if over := (cb - sns) / sns; over > 0.05 {
		t.Errorf("Caribou overhead over SNS = %.1f%%; want small", over*100)
	}
}

func TestBenchmarkTrafficStaysHome(t *testing.T) {
	sched, p := newTestEnv(t)
	wl := workloads.DNAVisualization()
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, wl, ModeCaribou, nil, &recs)
	plan := dag.NewHomePlan(wl.DAG, region.CACentral1)
	if _, err := e.EnsureDeployment("visualize", region.CACentral1); err != nil {
		t.Fatal(err)
	}
	e.plans = StaticPlans{Hourly: dag.Uniform(plan)}

	const n = 300
	runInvocations(t, e, sched, n, workloads.Small, 30*time.Second)
	if len(recs) != n {
		t.Fatalf("completed %d of %d", len(recs), n)
	}
	benchmarked := 0
	for _, r := range recs {
		if r.Benchmarked {
			benchmarked++
			for _, ex := range r.Executions {
				if ex.Region != region.USEast1 {
					t.Errorf("benchmarked invocation %d ran in %s", r.ID, ex.Region)
				}
			}
		}
	}
	if benchmarked < n/20 || benchmarked > n/4 {
		t.Errorf("benchmarked %d of %d; want around 10%%", benchmarked, n)
	}
}
