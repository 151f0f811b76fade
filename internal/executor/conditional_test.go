package executor

import (
	"fmt"
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/workloads"
)

// condWorkload builds a workflow with a tunable conditional edge feeding a
// chain that ends in a synchronization node:
//
//	start -> always ------------------------> join
//	start ->(p) maybe -> downstream --------> join
//
// When the conditional edge is untaken, the skip must propagate through
// "downstream" and annotate its edge into "join" so the join still fires.
func condWorkload(p float64) *workloads.Workload {
	b := dag.NewBuilder("cond-test").
		AddNode(dag.Node{ID: "start"}).
		AddNode(dag.Node{ID: "always"}).
		AddNode(dag.Node{ID: "maybe"}).
		AddNode(dag.Node{ID: "downstream"}).
		AddNode(dag.Node{ID: "join"}).
		AddEdge("start", "always").
		AddConditionalEdge("start", "maybe", p).
		AddEdge("maybe", "downstream").
		AddEdge("always", "join").
		AddEdge("downstream", "join")
	d, err := b.Build()
	if err != nil {
		panic(err)
	}
	prof := func(sec float64) workloads.NodeProfile {
		return workloads.NodeProfile{
			MeanDurationSec: map[workloads.InputClass]float64{workloads.Small: sec, workloads.Large: sec},
			DurationSigma:   0.05, CPUUtil: 0.7, MemoryMB: 1024,
		}
	}
	return &workloads.Workload{
		Name: "cond-test",
		DAG:  d,
		Nodes: map[dag.NodeID]workloads.NodeProfile{
			"start": prof(0.2), "always": prof(0.5), "maybe": prof(0.3),
			"downstream": prof(0.4), "join": prof(0.2),
		},
		EdgeBytes: map[workloads.EdgeKey]map[workloads.InputClass]float64{
			{From: "always", To: "join"}:     {workloads.Small: 1e4, workloads.Large: 1e4},
			{From: "downstream", To: "join"}: {workloads.Small: 1e4, workloads.Large: 1e4},
		},
		EntryBytes: map[workloads.InputClass]float64{workloads.Small: 1e3, workloads.Large: 1e3},
		InputLabel: map[workloads.InputClass]string{workloads.Small: "s", workloads.Large: "l"},
		ImageBytes: 1e8,
	}
}

func runCond(t *testing.T, p float64, n int) []*platform.InvocationRecord {
	t.Helper()
	sched, plat := newTestEnv(t)
	var recs []*platform.InvocationRecord
	e := newEngine(t, plat, condWorkload(p), ModeCaribou, HomeOnly{}, &recs)
	runInvocations(t, e, sched, n, workloads.Small, time.Minute)
	if len(recs) != n {
		t.Fatalf("completed %d of %d", len(recs), n)
	}
	if e.Live() != 0 {
		t.Fatalf("%d invocations leaked", e.Live())
	}
	return recs
}

func executedNodes(r *platform.InvocationRecord) map[dag.NodeID]int {
	out := map[dag.NodeID]int{}
	for _, e := range r.Executions {
		out[e.Node]++
	}
	return out
}

func TestSkipPropagationThroughChainToSync(t *testing.T) {
	// p = 0: the conditional edge is never taken; maybe and downstream
	// never run, yet join must fire exactly once via the skip
	// annotations.
	for _, r := range runCond(t, 0, 25) {
		got := executedNodes(r)
		if got["maybe"] != 0 || got["downstream"] != 0 {
			t.Fatalf("skipped branch executed: %v", got)
		}
		if got["join"] != 1 {
			t.Fatalf("join executed %d times", got["join"])
		}
		if !r.Succeeded {
			t.Fatal("invocation failed")
		}
	}
}

func TestConditionalAlwaysTaken(t *testing.T) {
	for _, r := range runCond(t, 1, 25) {
		got := executedNodes(r)
		for _, n := range []dag.NodeID{"start", "always", "maybe", "downstream", "join"} {
			if got[n] != 1 {
				t.Fatalf("node %s executed %d times", n, got[n])
			}
		}
	}
}

func TestConditionalFrequencyMatchesProbability(t *testing.T) {
	const n = 200
	taken := 0
	for _, r := range runCond(t, 0.3, n) {
		if executedNodes(r)["maybe"] > 0 {
			taken++
		}
	}
	frac := float64(taken) / n
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("branch frequency = %.3f, want ~0.3", frac)
	}
}

// allCondWorkload has a sync node whose every incoming edge is
// conditional; when all are skipped the sync node itself is skipped and
// the workflow still terminates.
func TestSyncNodeSkippedWhenAllInputsSkipped(t *testing.T) {
	b := dag.NewBuilder("allcond").
		AddNode(dag.Node{ID: "s"}).
		AddNode(dag.Node{ID: "a"}).
		AddNode(dag.Node{ID: "b"}).
		AddNode(dag.Node{ID: "join"}).
		AddNode(dag.Node{ID: "tail"}).
		AddConditionalEdge("s", "a", 0).
		AddConditionalEdge("s", "b", 0).
		AddEdge("a", "join").
		AddEdge("b", "join").
		AddEdge("join", "tail")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prof := workloads.NodeProfile{
		MeanDurationSec: map[workloads.InputClass]float64{workloads.Small: 0.2, workloads.Large: 0.2},
		DurationSigma:   0.05, CPUUtil: 0.7, MemoryMB: 1024,
	}
	wl := &workloads.Workload{
		Name: "allcond",
		DAG:  d,
		Nodes: map[dag.NodeID]workloads.NodeProfile{
			"s": prof, "a": prof, "b": prof, "join": prof, "tail": prof,
		},
		EdgeBytes:  map[workloads.EdgeKey]map[workloads.InputClass]float64{},
		EntryBytes: map[workloads.InputClass]float64{workloads.Small: 1e3, workloads.Large: 1e3},
		InputLabel: map[workloads.InputClass]string{workloads.Small: "s", workloads.Large: "l"},
		ImageBytes: 1e8,
	}
	sched, plat := newTestEnv(t)
	var recs []*platform.InvocationRecord
	e := newEngine(t, plat, wl, ModeCaribou, HomeOnly{}, &recs)
	runInvocations(t, e, sched, 10, workloads.Small, time.Minute)
	if len(recs) != 10 {
		t.Fatalf("completed %d of 10", len(recs))
	}
	for _, r := range recs {
		got := executedNodes(r)
		if len(got) != 1 || got["s"] != 1 {
			t.Fatalf("executions = %v, want only the start node", got)
		}
	}
}

func TestStepFunctionsModeMatchesSemantics(t *testing.T) {
	// The SF orchestrator must produce the same execution sets as the
	// Caribou path for the same seeds (common random numbers).
	run := func(mode Mode) []map[dag.NodeID]int {
		sched, plat := newTestEnv(t)
		var recs []*platform.InvocationRecord
		e := newEngine(t, plat, condWorkload(0.5), mode, HomeOnly{}, &recs)
		runInvocations(t, e, sched, 40, workloads.Small, time.Minute)
		if len(recs) != 40 {
			t.Fatalf("mode %v completed %d of 40", mode, len(recs))
		}
		var out []map[dag.NodeID]int
		for _, r := range recs {
			out = append(out, executedNodes(r))
		}
		return out
	}
	caribou := run(ModeCaribou)
	sf := run(ModeStepFunctions)
	for i := range caribou {
		for n, c := range caribou[i] {
			if sf[i][n] != c {
				t.Fatalf("invocation %d node %s: caribou %d vs stepfunctions %d", i, n, c, sf[i][n])
			}
		}
	}
}

func TestStepFunctionsNoKVOrSNSTraffic(t *testing.T) {
	sched, plat := newTestEnv(t)
	var recs []*platform.InvocationRecord
	e := newEngine(t, plat, condWorkload(0.5), ModeStepFunctions, HomeOnly{}, &recs)
	runInvocations(t, e, sched, 10, workloads.Small, time.Minute)
	for _, r := range recs {
		if len(r.Services.SNSPublishes) != 0 || len(r.Services.KVReads) != 0 || len(r.Services.KVWrites) != 0 {
			t.Fatalf("orchestrator mode incurred service traffic: %+v", r.Services)
		}
		for _, tr := range r.Transfers {
			if tr.From != region.USEast1 || tr.To != region.USEast1 {
				t.Fatalf("cross-region transfer in SF mode: %+v", tr)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeCaribou.String() != "caribou" || ModePlainSNS.String() != "sns" || ModeStepFunctions.String() != "stepfunctions" {
		t.Error("mode strings wrong")
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode should render")
	}
}

// TestCommonRandomNumbersAcrossPlans: the same invocation ID must take the
// same conditional branches and sample the same base durations regardless
// of where stages are deployed, so strategy comparisons are paired.
func TestCommonRandomNumbersAcrossPlans(t *testing.T) {
	run := func(plans PlanSource, deployRemote bool) []map[dag.NodeID]int {
		sched, p := newTestEnv(t)
		var recs []*platform.InvocationRecord
		e := newEngine(t, p, condWorkload(0.5), ModeCaribou, plans, &recs)
		e.benchFr = 0
		if deployRemote {
			for _, n := range e.wl.DAG.Nodes() {
				if _, err := e.EnsureDeployment(n, region.CACentral1); err != nil {
					t.Fatal(err)
				}
			}
		}
		runInvocations(t, e, sched, 30, workloads.Small, time.Minute)
		var out []map[dag.NodeID]int
		for _, r := range recs {
			out = append(out, executedNodes(r))
		}
		return out
	}
	home := run(HomeOnly{}, false)
	remotePlan := dag.NewHomePlan(condWorkload(0.5).DAG, region.CACentral1)
	remote := run(StaticPlans{Hourly: dag.Uniform(remotePlan)}, true)
	if len(home) != len(remote) {
		t.Fatalf("lengths differ: %d vs %d", len(home), len(remote))
	}
	for i := range home {
		for n, c := range home[i] {
			if remote[i][n] != c {
				t.Fatalf("invocation %d node %s: home %d vs remote %d (branch decisions diverged)", i, n, c, remote[i][n])
			}
		}
	}
}

// TestRngForStreamsMatchDerivedLabels pins the pooled per-decision streams
// to the labels they have always carried: rngFor's append-built label and
// pooled source must give the stream DeriveRand gives for
// "<workflow>/<kind>/<inv>/<part>[/<part>]", so recorded runs replay.
func TestRngForStreamsMatchDerivedLabels(t *testing.T) {
	_, p := newTestEnv(t)
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, condWorkload(0.5), ModeCaribou, HomeOnly{}, &recs)
	for _, tc := range []struct {
		kind string
		inv  uint64
		a, b string
	}{
		{"dur", 0, "start", ""},
		{"util", 18446744073709551615, "join", ""},
		{"branch", 41, "start", "left"},
	} {
		label := fmt.Sprintf("%s/%s/%d/%s", e.wl.Name, tc.kind, tc.inv, tc.a)
		if tc.b != "" {
			label += "/" + tc.b
		}
		want := simclock.DeriveRand(e.seed, label)
		got := e.rngFor(tc.kind, tc.inv, tc.a, tc.b)
		for i := 0; i < 4; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Errorf("%s draw %d: %v, want %v", label, i, g, w)
			}
		}
		got.Release()
	}
}
