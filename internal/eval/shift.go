package eval

import (
	"fmt"
	"io"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/core"
	"caribou/internal/dag"
	"caribou/internal/executor"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/workloads"
)

// Input-distribution shift experiment (§9.1: "input sizes may vary
// greatly and undergo distribution shifts. Caribou captures these shifts
// by learning from the most recent invocations and adapts the deployment
// plan if necessary"). An ETL-style workflow whose payloads grow two
// orders of magnitude faster than its compute runs under the worst-case
// transmission model — the §9.2 (I2) situation: with small inputs,
// offloading to ca-central-1 pays off; after the distribution shifts to
// large inputs, transmission carbon swamps the gains and the adaptive
// framework must pull the workflow back home.

// shiftWorkload is the ETL pipeline used by ExtShift: extract → load,
// with compute that barely grows between input classes while payloads
// explode (100 KB → 24 MB).
func shiftWorkload() *workloads.Workload {
	d, err := dag.NewBuilder("etl-shift").
		AddNode(dag.Node{ID: "extract", MemoryMB: 1769}).
		AddNode(dag.Node{ID: "load", MemoryMB: 1769}).
		AddEdge("extract", "load").
		Build()
	if err != nil {
		panic(err) // static definition
	}
	return &workloads.Workload{
		Name:        "etl-shift",
		Description: "ETL pipeline with payloads that grow much faster than compute",
		DAG:         d,
		Nodes: map[dag.NodeID]workloads.NodeProfile{
			"extract": {MeanDurationSec: map[workloads.InputClass]float64{workloads.Small: 1.5, workloads.Large: 2.0}, DurationSigma: 0.1, CPUUtil: 0.8, MemoryMB: 1769},
			"load":    {MeanDurationSec: map[workloads.InputClass]float64{workloads.Small: 2.5, workloads.Large: 3.5}, DurationSigma: 0.1, CPUUtil: 0.8, MemoryMB: 1769},
		},
		EdgeBytes: map[workloads.EdgeKey]map[workloads.InputClass]float64{
			{From: "extract", To: "load"}: {workloads.Small: 80e3, workloads.Large: 20e6},
		},
		EntryBytes: map[workloads.InputClass]float64{workloads.Small: 200e3, workloads.Large: 24e6},
		OutputBytes: map[dag.NodeID]map[workloads.InputClass]float64{
			"load": {workloads.Small: 50e3, workloads.Large: 12e6},
		},
		InputLabel: map[workloads.InputClass]string{workloads.Small: "200KB", workloads.Large: "24MB"},
		ImageBytes: 300e6,
	}
}

// ExtShiftDay summarizes one day of the shift experiment.
type ExtShiftDay struct {
	Day int
	// LargeShare is the day's observed large-input fraction.
	LargeShare float64
	// OffloadedShare is the fraction of stage executions outside home.
	OffloadedShare float64
	// CarbonG is the measured mean carbon per invocation (worst case).
	CarbonG float64
}

// ExtShift runs the experiment — six days at 240 invocations a day, or
// four at 120 under Quick; the shift happens halfway — and returns
// per-day rows. It is a single continuous adaptive run (its days are
// causally chained through the learning loop), so it occupies one worker
// slot on the pool's generic job lane.
func ExtShift(s Scale) ([]ExtShiftDay, error) {
	var rows []ExtShiftDay
	err := s.Pool.orDefault().Do(1, func(int) error {
		var err error
		rows, err = extShiftRun(pick(s, 6, 4), pick(s, 240, 120), s.seed())
		return err
	})
	return rows, err
}

func extShiftRun(days, perDay int, seed int64) ([]ExtShiftDay, error) {
	start := EvalStart
	end := start.Add(time.Duration(days) * 24 * time.Hour)
	env, err := core.NewEnv(core.EnvConfig{
		Seed: seed, Start: start, End: end, Regions: region.EvaluationFour(),
	})
	if err != nil {
		return nil, err
	}
	tx := carbon.WorstCase()
	app, err := env.NewApp(core.AppConfig{
		Workload: shiftWorkload(),
		Home:     region.USEast1,
		Mode:     executor.ModeCaribou,
		Adaptive: true,
		Tx:       tx,
		Objective: solver.Objective{
			Priority:   solver.PriorityCarbon,
			Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
		},
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}

	shiftAt := start.Add(time.Duration(days/2) * 24 * time.Hour)
	gap := 24 * time.Hour / time.Duration(perDay)
	for d := 0; d < days; d++ {
		dayStart := start.Add(time.Duration(d) * 24 * time.Hour)
		class := workloads.Small
		if !dayStart.Before(shiftAt) {
			class = workloads.Large
		}
		app.ScheduleUniform(dayStart, perDay, gap, class)
	}
	app.ScheduleManagerTicks(time.Hour)
	env.Run()

	var rows []ExtShiftDay
	for d := 0; d < days; d++ {
		from := start.Add(time.Duration(d) * 24 * time.Hour)
		to := from.Add(24 * time.Hour)
		row := ExtShiftDay{Day: d + 1}
		var execTotal, execRemote, invs, large int
		var carbonSum float64
		for _, r := range app.Records {
			if r.End.Before(from) || !r.End.Before(to) {
				continue
			}
			invs++
			if r.InputClass == string(workloads.Large) {
				large++
			}
			for _, e := range r.Executions {
				execTotal++
				if e.Region != region.USEast1 {
					execRemote++
				}
			}
			eg, tg, err := r.CarbonGrams(env.Carbon, env.Cat, tx)
			if err != nil {
				return nil, err
			}
			carbonSum += eg + tg
		}
		if invs == 0 {
			continue
		}
		row.LargeShare = float64(large) / float64(invs)
		row.OffloadedShare = float64(execRemote) / float64(execTotal)
		row.CarbonG = carbonSum / float64(invs)
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("ext-shift: no completed invocations")
	}
	return rows, nil
}

// PrintExtShift renders the per-day adaptation series.
func PrintExtShift(w io.Writer, rows []ExtShiftDay) {
	fmt.Fprintf(w, "Extension — input-distribution shift adaptation (etl-shift, worst-case tx)\n")
	fmt.Fprintf(w, "%4s %12s %12s %12s\n", "day", "large-share", "offloaded", "gCO2/inv")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %11.0f%% %11.1f%% %12.5f\n", r.Day, r.LargeShare*100, r.OffloadedShare*100, r.CarbonG)
	}
}
