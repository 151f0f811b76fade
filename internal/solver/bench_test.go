package solver

// Kernel benchmarks of the two solve paths no harness workload times on its
// own: an exhaustive day that the row screen serves, and the O(|R|) coarse
// baseline. The HBSS day is the harness's plan-day workload
// (`go run ./benchmark -workload plan-day`).

import (
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/montecarlo"
	"caribou/internal/region"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// benchSolver is a carbon-priority solver over Text2Speech learned in
// us-east-1, restricted to regions when they are given.
func benchSolver(b *testing.B, regions ...region.ID) *Solver {
	mm := learned(b, workloads.Text2SpeechCensoring(), region.USEast1)
	s, err := New(Config{
		Inputs: mm, Estimator: montecarlo.New(mm, carbon.BestCase(), 1),
		Objective: Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(25)}},
		Regions:   regions,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSolveExhaustiveDay is the daily plan generation on an exhaustive
// space whose estimates all converge at the first boundary — Text2Speech
// over {us-east-1, ca-central-1}, 2⁶ = 64 plans × 24 hours: the regime the
// row screen serves. Every plan's first block proves its stop at every
// hour, so the solve replays 64 batches, screens the cells and prices
// only the contenders (priced/op, next to screened/op; the 24 home cells
// are priced before the enumeration).
func BenchmarkSolveExhaustiveDay(b *testing.B) {
	rec := telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	s := benchSolver(b, region.USEast1, region.CACentral1)
	now := t0.Add(24 * time.Hour)
	screened, prices := rec.Counter("montecarlo.screened_candidates"), rec.Counter("montecarlo.hour_prices")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveHourly(now, now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(screened.Value())/float64(b.N), "screened/op")
	b.ReportMetric(float64(prices.Value())/montecarlo.BatchSize/float64(b.N), "priced/op")
}

// BenchmarkSolverCoarse is the O(|R|) single-region ablation baseline.
func BenchmarkSolverCoarse(b *testing.B) {
	s := benchSolver(b)
	at, now := t0.Add(25*time.Hour), t0.Add(24*time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveCoarse(at, now); err != nil {
			b.Fatal(err)
		}
	}
}
