package core

import (
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/executor"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/trace"
	"caribou/internal/workloads"
)

var evalStart = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

// runScenario executes warmup (home-only, day 1) then a measured day 2
// under plans produced by plan(). It returns the day-2 summary under tx.
func runScenario(t *testing.T, wl *workloads.Workload, tx carbon.TransmissionModel,
	plan func(app *App, dayStart time.Time) dag.HourlyPlans) Summary {
	t.Helper()
	env, err := NewEnv(EnvConfig{
		Seed:    11,
		Start:   evalStart,
		End:     evalStart.Add(48 * time.Hour),
		Regions: region.EvaluationFour(),
	})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	app, err := env.NewApp(AppConfig{
		Workload: wl,
		Home:     region.USEast1,
		Mode:     executor.ModeCaribou,
		Tx:       tx,
		Objective: solver.Objective{
			Priority:   solver.PriorityCarbon,
			Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
		},
	})
	if err != nil {
		t.Fatalf("NewApp: %v", err)
	}

	// Day 1: warmup at home to seed the Metric Manager.
	const perDay = 240
	gap := 24 * time.Hour / perDay
	app.ScheduleUniform(evalStart, perDay, gap, workloads.Small)
	day2 := evalStart.Add(24 * time.Hour)
	env.RunUntil(day2)

	warmupCount := len(app.Records)
	if warmupCount < perDay*9/10 {
		t.Fatalf("warmup completed only %d invocations", warmupCount)
	}

	// Solve and deploy for day 2.
	plans := plan(app, day2)
	if _, err := app.DeployPlanRegions(plans); err != nil {
		t.Fatalf("DeployPlanRegions: %v", err)
	}
	app.SetStaticPlans(plans)

	app.ScheduleUniform(day2, perDay, gap, workloads.Small)
	env.Run()

	day2Records := app.Records[warmupCount:]
	sum, err := env.Summarize(day2Records, tx)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if sum.Succeeded < sum.Invocations {
		t.Fatalf("%d of %d invocations failed", sum.Invocations-sum.Succeeded, sum.Invocations)
	}
	return sum
}

func homePlanner(app *App, _ time.Time) dag.HourlyPlans {
	return dag.Uniform(dag.NewHomePlan(app.Workload.DAG, app.Home))
}

func caribouPlanner(t *testing.T) func(app *App, dayStart time.Time) dag.HourlyPlans {
	return func(app *App, dayStart time.Time) dag.HourlyPlans {
		if err := app.Metrics.RefreshForecasts(dayStart); err != nil {
			t.Fatalf("RefreshForecasts: %v", err)
		}
		plans, _, err := app.Solver.SolveHourly(dayStart, dayStart)
		if err != nil {
			t.Fatalf("SolveHourly: %v", err)
		}
		return plans
	}
}

func TestCaribouReducesCarbonBestCase(t *testing.T) {
	wl := workloads.Text2SpeechCensoring()
	tx := carbon.BestCase()
	home := runScenario(t, wl, tx, homePlanner)
	fine := runScenario(t, wl, tx, caribouPlanner(t))

	ratio := fine.MeanCarbonG / home.MeanCarbonG
	t.Logf("text2speech best-case: home %.4f g, caribou %.4f g, ratio %.3f", home.MeanCarbonG, fine.MeanCarbonG, ratio)
	if ratio >= 0.95 {
		t.Errorf("Caribou should cut carbon markedly in the best case; got ratio %.3f", ratio)
	}
}

func TestCaribouAvoidsRegressionWorstCase(t *testing.T) {
	// Image processing is transmission-heavy: under the worst-case model
	// the adaptive framework must avoid making things worse (§9.2 I2).
	wl := workloads.ImageProcessing()
	tx := carbon.WorstCase()
	home := runScenario(t, wl, tx, homePlanner)
	fine := runScenario(t, wl, tx, caribouPlanner(t))

	ratio := fine.MeanCarbonG / home.MeanCarbonG
	t.Logf("image-processing worst-case: home %.4f g, caribou %.4f g, ratio %.3f", home.MeanCarbonG, fine.MeanCarbonG, ratio)
	if ratio > 1.10 {
		t.Errorf("Caribou regressed carbon by %.0f%% in the worst case", (ratio-1)*100)
	}
}

func TestComplianceConstraintRespected(t *testing.T) {
	env, err := NewEnv(EnvConfig{
		Seed: 3, Start: evalStart, End: evalStart.Add(48 * time.Hour),
		Regions: region.EvaluationFour(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := workloads.Text2SpeechCensoring()
	app, err := env.NewApp(AppConfig{
		Workload: wl,
		Home:     region.USEast1,
		Mode:     executor.ModeCaribou,
		Objective: solver.Objective{
			Priority: solver.PriorityCarbon,
		},
		// Regulation-sensitive workflow: data may not leave the US.
		Constraint: region.Constraint{AllowedCountries: []string{"US"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const perDay = 200
	gap := 24 * time.Hour / perDay
	app.ScheduleUniform(evalStart, perDay, gap, workloads.Small)
	day2 := evalStart.Add(24 * time.Hour)
	env.RunUntil(day2)

	plans, _, err := app.Solver.SolveHourly(day2, day2)
	if err != nil {
		t.Fatalf("SolveHourly: %v", err)
	}
	for h, plan := range plans {
		for node, r := range plan {
			reg, ok := env.Cat.Get(r)
			if !ok || reg.Country != "US" {
				t.Errorf("hour %d: node %s assigned to %s, violating US-only constraint", h, node, r)
			}
		}
	}
}

func TestAdaptiveManagerProducesPlans(t *testing.T) {
	env, err := NewEnv(EnvConfig{
		Seed: 5, Start: evalStart, End: evalStart.Add(4 * 24 * time.Hour),
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
	const perDay = 150
	app.ScheduleUniform(evalStart, 4*perDay, 24*time.Hour/perDay, workloads.Small)
	app.ScheduleManagerTicks(time.Hour)
	env.Run()

	if app.Manager.Solves() == 0 {
		t.Error("adaptive manager never solved a deployment plan")
	}
	if len(app.Records) < 4*perDay*9/10 {
		t.Errorf("completed %d of %d invocations", len(app.Records), 4*perDay)
	}
	if app.Manager.OverheadGrams <= 0 {
		t.Error("no framework overhead was accounted")
	}
}

func cbBest() carbon.TransmissionModel { return carbon.BestCase() }

func TestScheduleTraceAndStaticPlanHelpers(t *testing.T) {
	env, err := NewEnv(EnvConfig{
		Seed: 21, Start: evalStart, End: evalStart.Add(24 * time.Hour),
		Regions: region.EvaluationFour(),
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := env.NewApp(AppConfig{
		Workload: workloads.DNAVisualization(),
		Home:     region.USEast1,
		Mode:     executor.ModeCaribou,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.Generate(trace.Uniform(96), evalStart, env.End, 21)
	if err != nil {
		t.Fatal(err)
	}
	// Mix of small and large classes from the trace.
	app.ScheduleTrace(events)

	// Route through a static plan in ca-central-1, then back home.
	plan := dag.NewHomePlan(app.Workload.DAG, region.CACentral1)
	if _, err := app.DeployPlanRegions(dag.Uniform(plan)); err != nil {
		t.Fatal(err)
	}
	app.SetStaticPlans(dag.Uniform(plan))
	env.RunUntil(evalStart.Add(12 * time.Hour))
	app.Engine.SetPlans(executor.HomeOnly{})
	env.Run()

	if len(app.Records) < len(events)*9/10 {
		t.Fatalf("completed %d of %d", len(app.Records), len(events))
	}
	sawRemote, sawHomeAfter := false, false
	for _, r := range app.Records {
		for _, e := range r.Executions {
			if e.Region == region.CACentral1 {
				sawRemote = true
			}
			if e.Region == region.USEast1 && r.End.After(evalStart.Add(13*time.Hour)) {
				sawHomeAfter = true
			}
		}
	}
	if !sawRemote {
		t.Error("static plan never routed to ca-central-1")
	}
	if !sawHomeAfter {
		t.Error("UseHomeOnly did not take effect")
	}
	if app.InvokeErrors != 0 {
		t.Errorf("invoke errors: %d", app.InvokeErrors)
	}
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(EnvConfig{Start: evalStart, End: evalStart}); err == nil {
		t.Error("want error when End is not after Start")
	}
	if _, err := NewEnv(EnvConfig{Start: evalStart, End: evalStart.Add(time.Hour), Regions: []region.ID{"aws:nowhere"}}); err == nil {
		t.Error("want error for unknown region")
	}
}

func TestNewAppValidation(t *testing.T) {
	env, err := NewEnv(EnvConfig{Seed: 1, Start: evalStart, End: evalStart.Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.NewApp(AppConfig{}); err == nil {
		t.Error("want error without workload")
	}
	if _, err := env.NewApp(AppConfig{Workload: workloads.DNAVisualization(), Home: "aws:nowhere"}); err == nil {
		t.Error("want error for unknown home")
	}
}
