package deployer

import (
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/executor"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/workloads"
)

var t0 = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

func newStack(t *testing.T) (*platform.Platform, *executor.Engine, *Deployer, *workloads.Workload) {
	t.Helper()
	sched := simclock.New(t0)
	cat := region.NorthAmerica()
	p, err := platform.New(platform.Options{Sched: sched, Catalogue: cat, Net: netmodel.New(cat), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wl := workloads.Text2SpeechCensoring()
	eng, err := executor.New(executor.Options{Platform: p, Workload: wl, Home: region.USEast1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := New(eng, p)
	if err := d.InitialDeploy(); err != nil {
		t.Fatal(err)
	}
	return p, eng, d, wl
}

func TestInitialDeployCoversAllStagesAtHome(t *testing.T) {
	p, _, _, wl := newStack(t)
	for _, n := range wl.DAG.Nodes() {
		ref := platform.FunctionRef{Workflow: wl.Name, Node: n, Region: region.USEast1}
		if !p.IsDeployed(ref) {
			t.Errorf("stage %s not deployed at home", n)
		}
	}
}

func TestRolloutActivatesAndRoutes(t *testing.T) {
	p, _, d, wl := newStack(t)
	plan := dag.NewHomePlan(wl.DAG, region.USEast1)
	plan["profanity"] = region.CACentral1
	plans := dag.Uniform(plan)
	expiry := t0.Add(24 * time.Hour)

	moved, err := d.Rollout(plans, expiry)
	if err != nil {
		t.Fatal(err)
	}
	if moved <= 0 {
		t.Error("image replication bytes not reported")
	}
	if !p.IsDeployed(platform.FunctionRef{Workflow: wl.Name, Node: "profanity", Region: region.CACentral1}) {
		t.Error("remote deployment missing after rollout")
	}
	got := d.ActivePlan(t0.Add(time.Hour))
	if got == nil || got["profanity"] != region.CACentral1 {
		t.Errorf("active plan = %v", got)
	}
	// After expiry: home fallback.
	if d.ActivePlan(expiry.Add(time.Minute)) != nil {
		t.Error("expired plan still active")
	}
}

func TestRolloutFailureKeepsFallbackAndRetries(t *testing.T) {
	_, _, d, wl := newStack(t)
	plan := dag.NewHomePlan(wl.DAG, region.CACentral1)
	plans := dag.Uniform(plan)

	fail := true
	d.FailDeploy = func(node dag.NodeID, r region.ID) bool {
		return fail && r == region.CACentral1 && node == "compress"
	}
	if _, err := d.Rollout(plans, t0.Add(24*time.Hour)); err == nil {
		t.Fatal("want rollout failure")
	}
	if d.ActivePlan(t0.Add(time.Hour)) != nil {
		t.Error("failed rollout must not activate")
	}
	if !d.HasPending() {
		t.Error("failed rollout should stage a retry")
	}

	// The Migrator retries and succeeds once the failure clears.
	fail = false
	if err := d.RetryPending(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if d.HasPending() {
		t.Error("pending not cleared after successful retry")
	}
	got := d.ActivePlan(t0.Add(time.Hour))
	if got == nil || got["compress"] != region.CACentral1 {
		t.Errorf("plan after retry = %v", got)
	}
}

func TestRetryPendingNoopWithoutFailure(t *testing.T) {
	_, _, d, _ := newStack(t)
	if err := d.RetryPending(); err != nil {
		t.Errorf("noop retry errored: %v", err)
	}
}

func TestExpireRoutesHome(t *testing.T) {
	_, _, d, wl := newStack(t)
	plans := dag.Uniform(dag.NewHomePlan(wl.DAG, region.USEast1))
	if _, err := d.Rollout(plans, t0.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.ActivePlan(t0) == nil {
		t.Fatal("plan should be active")
	}
	d.Expire()
	if d.ActivePlan(t0) != nil {
		t.Error("expired plan still served")
	}
}

func TestHourlyPlanSelection(t *testing.T) {
	_, _, d, wl := newStack(t)
	var plans dag.HourlyPlans
	for h := 0; h < 24; h++ {
		p := dag.NewHomePlan(wl.DAG, region.USEast1)
		if h >= 12 {
			p = dag.NewHomePlan(wl.DAG, region.USWest2)
		}
		plans[h] = p
	}
	if _, err := d.Rollout(plans, t0.Add(48*time.Hour)); err != nil {
		t.Fatal(err)
	}
	morning := d.ActivePlan(t0.Add(6 * time.Hour))
	evening := d.ActivePlan(t0.Add(18 * time.Hour))
	if morning["validate"] != region.USEast1 {
		t.Errorf("morning plan = %v", morning["validate"])
	}
	if evening["validate"] != region.USWest2 {
		t.Errorf("evening plan = %v", evening["validate"])
	}
}

func TestMigratedBytesAccumulate(t *testing.T) {
	_, _, d, wl := newStack(t)
	plan := dag.NewHomePlan(wl.DAG, region.USWest2)
	bytes, err := d.Rollout(dag.Uniform(plan), t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if bytes != wl.ImageBytes {
		t.Errorf("migrated = %v, want one image copy %v", bytes, wl.ImageBytes)
	}
	// Rolling out to the same region again copies nothing.
	bytes2, err := d.Rollout(dag.Uniform(plan), t0.Add(48*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if bytes2 != 0 {
		t.Errorf("second rollout copied images again: %v", bytes2)
	}
}
