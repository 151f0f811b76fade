package eval

import (
	"fmt"
	"io"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/core"
	"caribou/internal/executor"
	"caribou/internal/manager"
	"caribou/internal/metrics"
	"caribou/internal/netmodel"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/trace"
	"caribou/internal/workloads"
)

// Fig 13: (a) total carbon per invocation — execution, transmission, and
// framework overhead — as the fixed deployment-solve frequency sweeps
// from once to seven times per week (dynamic triggering disabled, §9.7);
// (b) carbon-forecast quality versus the forecast window implied by each
// frequency.

// Fig13aRow is one stacked bar of the frequency sweep.
type Fig13aRow struct {
	SolvesPerWeek int
	Scenario      string
	ExecGrams     float64 // per invocation
	TxGrams       float64
	OverheadGrams float64 // per invocation (solve cost amortized)
	TotalGrams    float64
}

// Fig13bRow is one forecast-quality sample.
type Fig13bRow struct {
	SolvesPerWeek int
	HorizonHours  int
	Region        region.ID
	MAPEPct       float64
}

// fig13Days is the span of one fixed-period run: a week.
const fig13Days = 7

// Fig13 runs both sub-figures. The workload is Text2Speech Censoring with
// the small input at the Azure 5th-percentile DAG's 1 600 invocations a
// day (§9.7), swept over one to seven solves a week; Quick runs 400 a day
// at one, four and seven. Fig 13a's fixed-period solve runs are not
// RunConfig-shaped, so they ride the pool's generic job lane.
func Fig13(s Scale) ([]Fig13aRow, []Fig13bRow, error) {
	freqs := pick(s, []int{1, 2, 3, 4, 5, 6, 7}, []int{1, 4, 7})
	perDay, seed := pick(s, 1600.0, 400.0), s.seed()
	scens := Scenarios()
	aRows := make([]Fig13aRow, len(freqs)*len(scens))
	err := s.Pool.orDefault().Do(len(aRows), func(i int) error {
		freq := freqs[i/len(scens)]
		sc := scens[i%len(scens)]
		row, err := fig13aRun(freq, sc.Name, sc.Tx, perDay, seed)
		if err != nil {
			return fmt.Errorf("fig13a f=%d %s: %w", freq, sc.Name, err)
		}
		aRows[i] = *row
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	bRows, err := fig13b(freqs, seed)
	if err != nil {
		return nil, nil, err
	}
	return aRows, bRows, nil
}

// fig13aRun executes one week with solves at a fixed period.
func fig13aRun(freq int, scenario string, tx carbon.TransmissionModel, perDay float64, seed int64) (*Fig13aRow, error) {
	wl := workloads.Text2SpeechCensoring()
	start := EvalStart
	end := start.Add(fig13Days * 24 * time.Hour)
	env, err := core.NewEnv(core.EnvConfig{
		Seed: seed, Start: start, End: end, Regions: region.EvaluationFour(),
	})
	if err != nil {
		return nil, err
	}
	app, err := env.NewApp(core.AppConfig{
		Workload: wl,
		Home:     region.USEast1,
		Mode:     executor.ModeCaribou,
		Objective: solver.Objective{
			Priority:   solver.PriorityCarbon,
			Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
		},
		Tx:   tx,
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}

	profile := trace.Uniform(perDay)
	events, err := trace.Generate(profile, start, end, seed)
	if err != nil {
		return nil, err
	}
	app.ScheduleTrace(events)

	// Fixed-period solving: the solver runs in ca-central-1 (as in the
	// paper's cost accounting), producing 24-hour granular plans.
	period := fig13Days * 24 * time.Hour / time.Duration(freq)
	var overhead float64
	for i := 0; i < freq; i++ {
		at := start.Add(time.Duration(i)*period + time.Hour) // after some data exists
		env.Sched.At(at, func() {
			now := env.Sched.Now()
			plans, _, err := manager.Solve(app.Metrics, app.Solver, now, manager.GranularityHourly)
			if err != nil {
				return
			}
			if _, err := app.DeployPlanRegions(plans); err != nil {
				return
			}
			app.SetStaticPlans(plans)
			overhead += fig13SolveCost(env, now)
		})
	}
	env.Run()

	sum, err := env.Summarize(app.Records, tx)
	if err != nil {
		return nil, err
	}
	perInv := overhead / float64(sum.Invocations)
	return &Fig13aRow{
		SolvesPerWeek: freq,
		Scenario:      scenario,
		ExecGrams:     sum.MeanExecCarbonG,
		TxGrams:       sum.MeanTxCarbonG,
		OverheadGrams: perInv,
		TotalGrams:    sum.MeanCarbonG + perInv,
	}, nil
}

// fig13SolveCost prices one 24-solve DP generation executed in
// ca-central-1 (§9.7 reports ~1.98e-2 gCO2eq for the Python engine; the
// Go Monte Carlo engine halves the solver runtime).
func fig13SolveCost(env *core.Env, now time.Time) float64 {
	const solveSeconds = 276 // Go engine, 24-hour granularity (§9.7)
	r, _ := env.Cat.Get(region.CACentral1)
	intensity, err := env.Carbon.At(r.GridZone, now)
	if err != nil {
		intensity = 35
	}
	return carbon.ExecutionCarbon(intensity, 1769, solveSeconds, 0.95)
}

// fig13b scores forecast MAPE at the horizon implied by each frequency:
// solving f times per week means plans rely on forecasts up to 7/f days
// old.
func fig13b(freqs []int, seed int64) ([]Fig13bRow, error) {
	src, err := carbon.SharedSource(seed, EvalStart.Add(-8*24*time.Hour), EvalStart.Add(9*24*time.Hour))
	if err != nil {
		return nil, err
	}
	cat := region.NorthAmerica()
	four, err := cat.Subset(region.EvaluationFour())
	if err != nil {
		return nil, err
	}
	wl := workloads.Text2SpeechCensoring()
	mm := metrics.New(wl.DAG, region.USEast1, four, netmodel.New(four), src, pricing.DefaultBook())

	var rows []Fig13bRow
	for _, freq := range freqs {
		horizon := 7 * 24 / freq
		for _, id := range region.EvaluationFour() {
			mape, err := mm.ForecastMAPE(id, EvalStart, horizon)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig13bRow{
				SolvesPerWeek: freq, HorizonHours: horizon, Region: id, MAPEPct: mape,
			})
		}
	}
	return rows, nil
}

// PrintFig13 renders both sub-figures.
func PrintFig13(w io.Writer, a []Fig13aRow, b []Fig13bRow) {
	fmt.Fprintf(w, "Fig 13a — carbon per invocation vs deployment-solve frequency\n")
	fmt.Fprintf(w, "%8s %-6s %10s %10s %10s %10s\n", "f/week", "scen", "exec(g)", "tx(g)", "ovhd(g)", "total(g)")
	for _, r := range a {
		fmt.Fprintf(w, "%8d %-6s %10.5f %10.5f %10.6f %10.5f\n",
			r.SolvesPerWeek, r.Scenario, r.ExecGrams, r.TxGrams, r.OverheadGrams, r.TotalGrams)
	}
	fmt.Fprintf(w, "\nFig 13b — carbon forecast MAPE vs forecast window\n")
	fmt.Fprintf(w, "%8s %8s %-18s %10s\n", "f/week", "horizon", "region", "MAPE(%)")
	for _, r := range b {
		fmt.Fprintf(w, "%8d %7dh %-18s %10.2f\n", r.SolvesPerWeek, r.HorizonHours, shortRegion(r.Region), r.MAPEPct)
	}
}
