package eval

import (
	"fmt"
	"io"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/forecast"
	"caribou/internal/region"
	"caribou/internal/stats"
	"caribou/internal/workloads"
)

// Ablations for the design choices DESIGN.md calls out: the HBSS search
// against exhaustive enumeration and the coarse single-region baseline;
// Holt-Winters forecasting against naive persistence; and the
// benchmarking-traffic fraction.

// AblationSolverRow compares one solve strategy on one workload.
type AblationSolverRow struct {
	Workload string
	Strategy string // "hbss", "exhaustive", "coarse"
	// Normalized is the estimated plan carbon / home plan carbon.
	Normalized float64
	// Explored counts candidate-plan estimates.
	SolveMillis int64
}

// AblationSolver runs the three strategies on workloads small enough to
// enumerate exhaustively (search space ≤ 4^|N|). The per-workload
// learning runs execute concurrently on the pool.
func AblationSolver(s Scale) ([]AblationSolverRow, error) {
	wls := []*workloads.Workload{
		workloads.DNAVisualization(), // 4 plans
		workloads.RAGDataIngestion(), // 16 plans
	}
	perWL := make([][]AblationSolverRow, len(wls))
	err := s.Pool.orDefault().Do(len(wls), func(i int) error {
		rows, err := ablationSolverOne(wls[i], s.Seed, s.perDay())
		if err != nil {
			return err
		}
		perWL[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationSolverRow
	for _, r := range perWL {
		rows = append(rows, r...)
	}
	return rows, nil
}

func ablationSolverOne(wl *workloads.Workload, seed int64, perDay int) ([]AblationSolverRow, error) {
	_, app, err := learnedApp(wl, region.EvaluationFour(), seed, perDay)
	if err != nil {
		return nil, fmt.Errorf("ablate-solver %s: %w", wl.Name, err)
	}
	now := EvalStart.Add(24 * time.Hour)
	home := dag.NewHomePlan(wl.DAG, region.USEast1)
	homeEst, err := app.Estimator.Estimate(home, now, now)
	if err != nil {
		return nil, err
	}
	type solveFn func() (float64, error)
	strategies := []struct {
		name string
		fn   solveFn
	}{
		{"hbss/exhaustive", func() (float64, error) {
			res, err := app.Solver.SolveOne(now, now)
			if err != nil {
				return 0, err
			}
			return res.Estimate.CarbonMean, nil
		}},
		{"coarse", func() (float64, error) {
			res, err := app.Solver.SolveCoarse(now, now)
			if err != nil {
				return 0, err
			}
			return res.Estimate.CarbonMean, nil
		}},
	}
	var rows []AblationSolverRow
	for _, s := range strategies {
		start := time.Now() //caribou:allow wallclock times the real solver run for the ablation's ms column, not simulated time
		carbonMean, err := s.fn()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationSolverRow{
			Workload:    wl.Name,
			Strategy:    s.name,
			Normalized:  carbonMean / homeEst.CarbonMean,
			SolveMillis: time.Since(start).Milliseconds(), //caribou:allow wallclock times the real solver run for the ablation's ms column, not simulated time
		})
	}
	return rows, nil
}

// PrintAblationSolver renders the comparison to w. The table carries only
// deterministic columns so stdout stays byte-comparable across runs and
// machines; the wall-clock solve times go to timings (nil discards them) —
// callers pass stderr.
func PrintAblationSolver(w, timings io.Writer, rows []AblationSolverRow) {
	fmt.Fprintf(w, "Ablation — solver strategies (estimated carbon normalized to home)\n")
	fmt.Fprintf(w, "%-24s %-18s %12s\n", "workload", "strategy", "normalized")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %-18s %12.3f\n", r.Workload, r.Strategy, r.Normalized)
	}
	if timings == nil {
		return
	}
	fmt.Fprintf(timings, "ablate-solver wall-clock\n")
	fmt.Fprintf(timings, "%-24s %-18s %10s\n", "workload", "strategy", "ms")
	for _, r := range rows {
		fmt.Fprintf(timings, "%-24s %-18s %10d\n", r.Workload, r.Strategy, r.SolveMillis)
	}
}

// AblationForecastRow compares forecasting strategies per zone/horizon.
type AblationForecastRow struct {
	Zone         string
	HorizonHours int
	HWMAPEPct    float64
	NaiveMAPEPct float64
}

// AblationForecast scores Holt-Winters against naive persistence on the
// synthetic carbon traces.
func AblationForecast(seed int64) ([]AblationForecastRow, error) {
	src, err := carbon.SharedSource(seed, EvalStart.Add(-8*24*time.Hour), EvalStart.Add(9*24*time.Hour))
	if err != nil {
		return nil, err
	}
	zones := []string{"US-MIDA-PJM", "US-CAL-CISO", "CA-QC"}
	horizons := []int{24, 72, 168}
	var rows []AblationForecastRow
	for _, zone := range zones {
		train, err := src.Hourly(zone, EvalStart.Add(-7*24*time.Hour), EvalStart)
		if err != nil {
			return nil, err
		}
		model, err := forecast.Fit(train, 24)
		if err != nil {
			return nil, err
		}
		for _, h := range horizons {
			actual, err := src.Hourly(zone, EvalStart, EvalStart.Add(time.Duration(h)*time.Hour))
			if err != nil {
				return nil, err
			}
			hw := model.ForecastRange(len(actual))
			naive := forecast.Naive(train, 24, len(actual))
			hwM, err := stats.MAPE(actual, hw)
			if err != nil {
				return nil, err
			}
			nvM, err := stats.MAPE(actual, naive)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationForecastRow{
				Zone: zone, HorizonHours: h, HWMAPEPct: hwM, NaiveMAPEPct: nvM,
			})
		}
	}
	return rows, nil
}

// PrintAblationForecast renders the comparison.
func PrintAblationForecast(w io.Writer, rows []AblationForecastRow) {
	fmt.Fprintf(w, "Ablation — Holt-Winters vs naive persistence (MAPE %%)\n")
	fmt.Fprintf(w, "%-14s %8s %12s %12s\n", "zone", "horizon", "holt-winters", "naive")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %7dh %12.2f %12.2f\n", r.Zone, r.HorizonHours, r.HWMAPEPct, r.NaiveMAPEPct)
	}
}

// AblationBenchTrafficRow measures the cost of the home-pinned
// benchmarking traffic share (§6.2's 10 %).
type AblationBenchTrafficRow struct {
	Fraction   float64
	Normalized float64 // measured carbon / home baseline, best case
}

// AblationBenchTraffic sweeps the benchmarking fraction on Text2Speech.
// All runs execute concurrently on the pool; the home baseline is shared
// with any other figure on the same pool via the memo.
func AblationBenchTraffic(s Scale) ([]AblationBenchTrafficRow, error) {
	wl := workloads.Text2SpeechCensoring()
	tx := carbon.BestCase()
	fracs := []float64{0.02, 0.10, 0.25, 0.50}
	cfgs := []RunConfig{{
		Workload: wl, Class: workloads.Small,
		Strategy: CoarseIn(region.USEast1),
		PlanTx:   tx, PerDay: s.perDay(), Seed: s.Seed,
	}}
	for _, frac := range fracs {
		cfgs = append(cfgs, RunConfig{
			Workload: wl, Class: workloads.Small,
			Strategy: Fine,
			PlanTx:   tx, PerDay: s.perDay(), Seed: s.Seed,
			BenchFraction: frac,
		})
	}
	results, err := s.Pool.orDefault().RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	homeSum, err := results[0].Summarize(tx)
	if err != nil {
		return nil, err
	}
	var rows []AblationBenchTrafficRow
	for i, frac := range fracs {
		sum, err := results[i+1].Summarize(tx)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationBenchTrafficRow{
			Fraction:   frac,
			Normalized: sum.MeanCarbonG / homeSum.MeanCarbonG,
		})
	}
	return rows, nil
}

// PrintAblationBenchTraffic renders the sweep.
func PrintAblationBenchTraffic(w io.Writer, rows []AblationBenchTrafficRow) {
	fmt.Fprintf(w, "Ablation — home-pinned benchmarking traffic fraction (text2speech, best case)\n")
	fmt.Fprintf(w, "%10s %12s\n", "fraction", "normalized")
	for _, r := range rows {
		fmt.Fprintf(w, "%9.0f%% %12.3f\n", r.Fraction*100, r.Normalized)
	}
}
