package core

import (
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/executor"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/workloads"
)

// TestAdaptiveSurvivesRolloutFailures injects deployment failures into the
// adaptive loop: while every cross-region deployment fails, all traffic
// must keep flowing through the home fallback with zero lost invocations;
// once the failure clears, the staged rollout retries and offloading
// resumes (§6.1).
func TestAdaptiveSurvivesRolloutFailures(t *testing.T) {
	env, err := NewEnv(EnvConfig{
		Seed:    13,
		Start:   evalStart,
		End:     evalStart.Add(4 * 24 * time.Hour),
		Regions: region.EvaluationFour(),
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := env.NewApp(AppConfig{
		Workload: workloads.Text2SpeechCensoring(),
		Home:     region.USEast1,
		Mode:     executor.ModeCaribou,
		Adaptive: true,
		Objective: solver.Objective{
			Priority:   solver.PriorityCarbon,
			Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// All cross-region deployments fail for the first two days.
	failing, failed := true, 0
	app.Deployer.FailDeploy = func(_ dag.NodeID, r region.ID) bool {
		if failing && r != region.USEast1 {
			failed++ // each injected failure fails its rollout
			return true
		}
		return false
	}
	env.Sched.At(evalStart.Add(48*time.Hour), func() { failing = false })

	const perDay = 200
	app.ScheduleUniform(evalStart, 4*perDay, 24*time.Hour/perDay, workloads.Small)
	app.ScheduleManagerTicks(time.Hour)
	env.Run()

	if got := len(app.Records); got != 4*perDay {
		t.Fatalf("completed %d of %d invocations", got, 4*perDay)
	}
	var failedPhaseRemote, laterRemote int
	for _, r := range app.Records {
		if !r.Succeeded {
			t.Fatalf("invocation %d failed", r.ID)
		}
		for _, e := range r.Executions {
			if e.Region != region.USEast1 {
				if r.End.Before(evalStart.Add(48 * time.Hour)) {
					failedPhaseRemote++
				} else {
					laterRemote++
				}
			}
		}
	}
	if failedPhaseRemote != 0 {
		t.Errorf("%d stage executions left home while rollouts were failing", failedPhaseRemote)
	}
	if laterRemote == 0 {
		t.Error("offloading never resumed after failures cleared")
	}
	if failed == 0 {
		t.Error("no failed rollouts recorded despite injection")
	}
}

// TestSummaryAccounting sanity-checks the Summary helpers on a real run.
func TestSummaryAccounting(t *testing.T) {
	env, err := NewEnv(EnvConfig{
		Seed:    3,
		Start:   evalStart,
		End:     evalStart.Add(24 * time.Hour),
		Regions: region.EvaluationFour(),
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := env.NewApp(AppConfig{
		Workload: workloads.RAGDataIngestion(),
		Home:     region.USEast1,
		Mode:     executor.ModeCaribou,
	})
	if err != nil {
		t.Fatal(err)
	}
	app.ScheduleUniform(evalStart, 50, 20*time.Minute, workloads.Large)
	env.Run()

	sum, err := env.Summarize(app.Records, cbBest())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Invocations != 50 || sum.Succeeded != 50 {
		t.Fatalf("summary counts: %+v", sum)
	}
	if sum.MeanCarbonG != sum.MeanExecCarbonG+sum.MeanTxCarbonG {
		t.Error("carbon components do not add up")
	}
	if sum.TotalCarbonG <= 0 || sum.MeanCostUSD <= 0 {
		t.Error("missing totals")
	}
	if sum.ExecToTxRatio() <= 0 {
		t.Error("ratio must be positive")
	}
	before := sum.TotalCarbonG
	sum.AddOverhead(1.5)
	if sum.TotalCarbonG != before+1.5 || sum.OverheadCarbonG != 1.5 {
		t.Error("overhead folding broken")
	}
	if _, err := env.Summarize(nil, cbBest()); err == nil {
		t.Error("want error for empty record set")
	}
}
