package core

import (
	"testing"
	"time"

	"caribou/internal/executor"
	"caribou/internal/region"
	"caribou/internal/workloads"
)

// BenchmarkSimulatedDay is one coarse, home-only day of Text2Speech at 96
// invocations through Env — platform, executor, metric ingest and record
// keeping with no solver in the loop: the simulator's share of an
// eval.Run, the unit the harness reports as eval.run_coarse_ms.
func BenchmarkSimulatedDay(b *testing.B) {
	const perDay = 96
	wl := workloads.Text2SpeechCensoring()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := NewEnv(EnvConfig{Seed: 1, Start: evalStart, End: evalStart.Add(24 * time.Hour), Regions: region.EvaluationFour()})
		if err != nil {
			b.Fatal(err)
		}
		app, err := env.NewApp(AppConfig{Workload: wl, Home: region.USEast1, Mode: executor.ModeCaribou, Seed: 1, BenchFraction: -1})
		if err != nil {
			b.Fatal(err)
		}
		app.ScheduleUniform(evalStart, perDay, 24*time.Hour/perDay, workloads.Small)
		env.Run()
		if len(app.Records) != perDay {
			b.Fatalf("completed %d of %d invocations", len(app.Records), perDay)
		}
	}
}
