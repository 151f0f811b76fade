package eval

import (
	"fmt"
	"io"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/core"
	"caribou/internal/dag"
	"caribou/internal/executor"
	"caribou/internal/manager"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/stats"
	"caribou/internal/workloads"
)

// Extension experiments beyond the paper's evaluation, exercising the
// directions its discussion motivates: global region sets (§2.1), temporal
// versus geospatial shifting (§2.2), and the ACI-versus-MCI signal choice
// (§7.1).

// learnedApp builds an environment, runs one home-only learning day, and
// returns the app ready for solving.
func learnedApp(wl *workloads.Workload, regions []region.ID, seed int64, perDay int) (*core.Env, *core.App, error) {
	env, err := core.NewEnv(core.EnvConfig{
		Seed:    seed,
		Start:   EvalStart,
		End:     EvalStart.Add(48 * time.Hour),
		Regions: regions,
	})
	if err != nil {
		return nil, nil, err
	}
	app, err := env.NewApp(core.AppConfig{
		Workload: wl,
		Home:     region.USEast1,
		Mode:     executor.ModeCaribou,
		Objective: solver.Objective{
			Priority:   solver.PriorityCarbon,
			Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
		},
		Regions: regions,
		Seed:    seed,
	})
	if err != nil {
		return nil, nil, err
	}
	gap := 24 * time.Hour / time.Duration(perDay)
	app.ScheduleUniform(EvalStart, perDay, gap, workloads.Small)
	env.RunUntil(EvalStart.Add(24 * time.Hour))
	if err := app.Metrics.RefreshForecasts(env.Sched.Now()); err != nil {
		return nil, nil, err
	}
	return env, app, nil
}

// --- Global shifting ---

// ExtGlobalRow compares fine-grained shifting over the NA evaluation set
// against the global catalogue for one workload.
type ExtGlobalRow struct {
	Workload         string
	NANormalized     float64 // solver-estimated carbon / home, 4 NA regions
	GlobalNormalized float64 // same with 10 global regions
}

// ExtGlobal estimates the additional headroom global region sets unlock.
// It compares solver-estimated plan carbon (normalized to the home plan)
// because executing against far regions is dominated by the same model
// terms; the NA numbers cross-check against Fig 7's measured runs. The
// per-(workload, region set) learning runs execute concurrently on the
// pool.
func ExtGlobal(s Scale) ([]ExtGlobalRow, error) {
	wls, perDay := s.workloads(), s.perDay()
	regionSets := [][]region.ID{region.EvaluationFour(), region.Global().IDs()}
	norms := make([]float64, len(wls)*len(regionSets))
	err := s.Pool.orDefault().Do(len(norms), func(i int) error {
		wl, regs := wls[i/len(regionSets)], regionSets[i%len(regionSets)]
		_, app, err := learnedApp(wl, regs, s.Seed, perDay)
		if err != nil {
			return fmt.Errorf("ext-global %s: %w", wl.Name, err)
		}
		now := EvalStart.Add(24 * time.Hour)
		home := dag.NewHomePlan(wl.DAG, region.USEast1)
		homeEst, err := app.Estimator.Estimate(home, now, now)
		if err != nil {
			return err
		}
		res, err := app.Solver.SolveOne(now, now)
		if err != nil {
			return err
		}
		norms[i] = res.Estimate.CarbonMean / homeEst.CarbonMean
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []ExtGlobalRow
	for i, wl := range wls {
		rows = append(rows, ExtGlobalRow{
			Workload:         wl.Name,
			NANormalized:     norms[i*len(regionSets)],
			GlobalNormalized: norms[i*len(regionSets)+1],
		})
	}
	return rows, nil
}

// PrintExtGlobal renders the comparison.
func PrintExtGlobal(w io.Writer, rows []ExtGlobalRow) {
	fmt.Fprintf(w, "Extension — global region sets vs North America (solver-estimated, best-case tx)\n")
	fmt.Fprintf(w, "%-24s %14s %14s\n", "workload", "NA (4 regions)", "global (10)")
	var na, gl []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %14.3f %14.3f\n", r.Workload, r.NANormalized, r.GlobalNormalized)
		na = append(na, r.NANormalized)
		gl = append(gl, r.GlobalNormalized)
	}
	gna, err1 := stats.GeometricMean(na)
	ggl, err2 := stats.GeometricMean(gl)
	if err1 == nil && err2 == nil {
		fmt.Fprintf(w, "geomean: NA %.3f, global %.3f\n", gna, ggl)
	}
}

// --- Temporal vs geospatial shifting ---

// ExtTemporalRow compares shifting strategies for one workload: carbon
// normalized to executing at home at the arrival hour, averaged over all
// 24 arrival hours.
type ExtTemporalRow struct {
	Workload string
	// Temporal defers execution to the best hour of day, staying home
	// (deadline ≤ 24 h).
	Temporal float64
	// Geospatial executes at the arrival hour under the solved plan.
	Geospatial float64
	// Combined defers and shifts.
	Combined float64
}

// ExtTemporal quantifies §2.2's contrast on the same modeling substrate.
// Workloads are scored concurrently on the pool.
func ExtTemporal(s Scale) ([]ExtTemporalRow, error) {
	wls, perDay := s.workloads(), s.perDay()
	rows := make([]ExtTemporalRow, len(wls))
	err := s.Pool.orDefault().Do(len(wls), func(i int) error {
		wl := wls[i]
		_, app, err := learnedApp(wl, region.EvaluationFour(), s.Seed, perDay)
		if err != nil {
			return fmt.Errorf("ext-temporal %s: %w", wl.Name, err)
		}
		now := EvalStart.Add(24 * time.Hour)
		home := dag.NewHomePlan(wl.DAG, region.USEast1)

		homeByHour := make([]float64, 24)
		solvedByHour := make([]float64, 24)
		for h := 0; h < 24; h++ {
			at := now.Add(time.Duration(h) * time.Hour)
			he, err := app.Estimator.Estimate(home, at, now)
			if err != nil {
				return err
			}
			homeByHour[h] = he.CarbonMean
			res, err := app.Solver.SolveOne(at, now)
			if err != nil {
				return err
			}
			solvedByHour[h] = res.Estimate.CarbonMean
		}
		bestHome := min24(homeByHour)
		bestSolved := min24(solvedByHour)
		var tSum, gSum, cSum, base float64
		for h := 0; h < 24; h++ {
			base += homeByHour[h]
			tSum += bestHome
			gSum += solvedByHour[h]
			cSum += bestSolved
		}
		rows[i] = ExtTemporalRow{
			Workload:   wl.Name,
			Temporal:   tSum / base,
			Geospatial: gSum / base,
			Combined:   cSum / base,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func min24(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// PrintExtTemporal renders the comparison.
func PrintExtTemporal(w io.Writer, rows []ExtTemporalRow) {
	fmt.Fprintf(w, "Extension — temporal vs geospatial shifting (carbon normalized to home at arrival hour)\n")
	fmt.Fprintf(w, "%-24s %10s %12s %10s\n", "workload", "temporal", "geospatial", "combined")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %10.3f %12.3f %10.3f\n", r.Workload, r.Temporal, r.Geospatial, r.Combined)
	}
}

// --- ACI vs MCI signal ---

// ExtSignalRow reports how plan decisions change when the solver
// optimizes against a marginal- instead of average-carbon signal.
type ExtSignalRow struct {
	Workload string
	// DivergentAssignments is the fraction of (hour, stage) assignments
	// that differ between ACI- and MCI-driven plans.
	DivergentAssignments float64
	// MCIPlanACICarbon is the ACI-accounted carbon of the MCI-chosen
	// plans normalized to the ACI-chosen plans: > 1 means optimizing
	// for MCI costs average-carbon performance.
	MCIPlanACICarbon float64
}

// ExtSignal runs the sensitivity study the §7.1 discussion calls for, on
// Text2Speech Censoring and Video Analytics, or under Quick on
// Text2Speech Censoring and Image Processing. Workloads are scored
// concurrently on the pool.
func ExtSignal(s Scale) ([]ExtSignalRow, error) {
	wls := pick(s,
		[]*workloads.Workload{workloads.Text2SpeechCensoring(), workloads.VideoAnalytics()},
		[]*workloads.Workload{workloads.Text2SpeechCensoring(), workloads.ImageProcessing()})
	seed, perDay := s.Seed, s.perDay()
	rows := make([]ExtSignalRow, len(wls))
	err := s.Pool.orDefault().Do(len(wls), func(i int) error {
		wl := wls[i]
		env, app, err := learnedApp(wl, region.EvaluationFour(), seed, perDay)
		if err != nil {
			return fmt.Errorf("ext-signal %s: %w", wl.Name, err)
		}
		now := EvalStart.Add(24 * time.Hour)
		aciPlans, _, err := manager.Solve(app.Metrics, app.Solver, now, manager.GranularityHourly)
		if err != nil {
			return err
		}

		// A second app whose Metric Manager reads the MCI signal.
		mci := carbon.NewMarginalSource(env.Carbon, seed)
		env2, err := core.NewEnv(core.EnvConfig{
			Seed: seed, Start: EvalStart, End: EvalStart.Add(48 * time.Hour),
			Regions: region.EvaluationFour(),
		})
		if err != nil {
			return err
		}
		app2, err := env2.NewAppWithCarbon(core.AppConfig{
			Workload: wl,
			Home:     region.USEast1,
			Mode:     executor.ModeCaribou,
			Objective: solver.Objective{
				Priority:   solver.PriorityCarbon,
				Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
			},
			Seed: seed,
		}, mci)
		if err != nil {
			return err
		}
		gap := 24 * time.Hour / time.Duration(perDay)
		app2.ScheduleUniform(EvalStart, perDay, gap, workloads.Small)
		env2.RunUntil(EvalStart.Add(24 * time.Hour))
		mciPlans, _, err := manager.Solve(app2.Metrics, app2.Solver, now, manager.GranularityHourly)
		if err != nil {
			return err
		}

		// Divergence and re-accounting of MCI plans under ACI.
		diverge, total := 0, 0
		var aciSum, mciSum float64
		for h := 0; h < 24; h++ {
			at := now.Add(time.Duration(h) * time.Hour)
			for n, r := range aciPlans[at.Hour()] {
				total++
				if mciPlans[at.Hour()][n] != r {
					diverge++
				}
			}
			ae, err := app.Estimator.Estimate(aciPlans[at.Hour()], at, now)
			if err != nil {
				return err
			}
			me, err := app.Estimator.Estimate(mciPlans[at.Hour()], at, now)
			if err != nil {
				return err
			}
			aciSum += ae.CarbonMean
			mciSum += me.CarbonMean
		}
		rows[i] = ExtSignalRow{
			Workload:             wl.Name,
			DivergentAssignments: float64(diverge) / float64(total),
			MCIPlanACICarbon:     mciSum / aciSum,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintExtSignal renders the study.
func PrintExtSignal(w io.Writer, rows []ExtSignalRow) {
	fmt.Fprintf(w, "Extension — ACI vs MCI signal sensitivity\n")
	fmt.Fprintf(w, "%-24s %12s %18s\n", "workload", "divergence", "MCI plan ACI cost")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %11.1f%% %18.3f\n", r.Workload, r.DivergentAssignments*100, r.MCIPlanACICarbon)
	}
}
