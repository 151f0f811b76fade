package executor

import (
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/workloads"
)

// removeDeployment tears the function for node in r down under a running
// engine, as a region failure would: the platform forgets it and the
// engine's deployment cache with it.
func removeDeployment(e *Engine, node dag.NodeID, r region.ID) {
	e.p.RemoveFunction(platform.FunctionRef{Workflow: e.wl.Name, Node: node, Region: r})
	delete(e.nodes[e.pos[node]].deployed, r)
}

// TestInFlightMessageToRemovedDeploymentFails exercises the message-loss
// path: a deployment disappears while an invocation message is in flight;
// the broker retries, exhausts attempts, and the invocation completes
// unsuccessfully instead of hanging forever.
func TestInFlightMessageToRemovedDeploymentFails(t *testing.T) {
	sched, p := newTestEnv(t)
	wl := workloads.DNAVisualization()
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, wl, ModeCaribou, nil, &recs)

	if _, err := e.EnsureDeployment("visualize", region.USWest2); err != nil {
		t.Fatal(err)
	}
	plan := dag.NewHomePlan(wl.DAG, region.USWest2)
	e.SetPlans(StaticPlans{Hourly: dag.Uniform(plan)})
	e.benchFr = 0

	if _, err := e.Invoke(workloads.Small); err != nil {
		t.Fatal(err)
	}
	// The message is now in flight to us-west-2; the deployment vanishes
	// before delivery (e.g. region failure).
	removeDeployment(e, "visualize", region.USWest2)
	sched.Run()

	if len(recs) != 1 {
		t.Fatalf("completed %d invocations, want 1 (failed)", len(recs))
	}
	if recs[0].Succeeded {
		t.Error("invocation should be marked failed after message drop")
	}
	if e.Live() != 0 {
		t.Error("invocation leaked")
	}
}

// TestRecoveryAfterRedelivery: the deployment reappears before the broker
// exhausts redelivery attempts, so the invocation ultimately succeeds —
// the at-least-once property end to end.
func TestRecoveryAfterRedelivery(t *testing.T) {
	sched, p := newTestEnv(t)
	wl := workloads.DNAVisualization()
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, wl, ModeCaribou, nil, &recs)

	if _, err := e.EnsureDeployment("visualize", region.USWest2); err != nil {
		t.Fatal(err)
	}
	plan := dag.NewHomePlan(wl.DAG, region.USWest2)
	e.SetPlans(StaticPlans{Hourly: dag.Uniform(plan)})
	e.benchFr = 0

	if _, err := e.Invoke(workloads.Small); err != nil {
		t.Fatal(err)
	}
	removeDeployment(e, "visualize", region.USWest2)
	// Redeploy shortly after: the first delivery attempt fails, a retry
	// lands.
	sched.After(2*time.Second, func() {
		if _, err := e.EnsureDeployment("visualize", region.USWest2); err != nil {
			t.Errorf("redeploy: %v", err)
		}
	})
	sched.Run()

	if len(recs) != 1 || !recs[0].Succeeded {
		t.Fatalf("recs = %d, succeeded = %v", len(recs), len(recs) > 0 && recs[0].Succeeded)
	}
	if recs[0].Executions[0].Region != region.USWest2 {
		t.Errorf("ran in %s", recs[0].Executions[0].Region)
	}
}

// TestColdStartsClusterAtDeploymentSwitch: a fresh remote deployment pays
// a cold start on first use, then stays warm for steady traffic.
func TestColdStartsClusterAtDeploymentSwitch(t *testing.T) {
	sched, p := newTestEnv(t)
	wl := workloads.DNAVisualization()
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, wl, ModeCaribou, nil, &recs)
	if _, err := e.EnsureDeployment("visualize", region.CACentral1); err != nil {
		t.Fatal(err)
	}
	e.SetPlans(StaticPlans{Hourly: dag.Uniform(dag.NewHomePlan(wl.DAG, region.CACentral1))})
	e.benchFr = 0

	runInvocations(t, e, sched, 20, workloads.Small, 5*time.Minute)
	if len(recs) != 20 {
		t.Fatalf("completed %d", len(recs))
	}
	colds := 0
	for _, r := range recs {
		for _, ex := range r.Executions {
			if ex.ColdStart {
				colds++
				if ex.InitSec <= 0 {
					t.Error("cold start without init time")
				}
			} else if ex.InitSec != 0 {
				t.Error("warm start with init time")
			}
		}
	}
	if colds != 1 {
		t.Errorf("cold starts = %d, want exactly the first", colds)
	}
}
