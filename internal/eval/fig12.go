package eval

import (
	"fmt"
	"io"
	"sort"
	"time"

	"caribou/internal/core"
	"caribou/internal/executor"
	"caribou/internal/region"
	"caribou/internal/stats"
	"caribou/internal/workloads"
)

// Fig 12: workflow execution time under AWS Step Functions, plain SNS
// chaining, and Caribou, isolating orchestration overhead (§9.6). All
// three run the same workloads with common random numbers in the home
// region.

// Fig12Row is one bar group member.
type Fig12Row struct {
	Workload    string
	Class       workloads.InputClass
	Mode        string
	MeanSeconds float64
	P95Seconds  float64
}

// fig12Invocations is the invocation count of one measurement day.
const fig12Invocations = 60

// Fig12 measures all mode/workload/class combinations concurrently. Its
// single-day orchestrator measurements are not RunConfig-shaped, so they
// ride the pool's generic job lane.
func Fig12(s Scale) ([]Fig12Row, error) {
	wls, classes, seed := s.workloads(), s.classes(), s.seed()
	modes := []executor.Mode{executor.ModeStepFunctions, executor.ModePlainSNS, executor.ModeCaribou}

	type combo struct {
		wl    *workloads.Workload
		class workloads.InputClass
		mode  executor.Mode
	}
	var combos []combo
	for _, wl := range wls {
		for _, class := range classes {
			for _, mode := range modes {
				combos = append(combos, combo{wl, class, mode})
			}
		}
	}
	rows := make([]Fig12Row, len(combos))
	err := s.Pool.orDefault().Do(len(combos), func(i int) error {
		c := combos[i]
		mean, p95, err := fig12Run(c.wl, c.class, c.mode, seed)
		if err != nil {
			return fmt.Errorf("fig12 %s/%s/%s: %w", c.wl.Name, c.class, c.mode, err)
		}
		rows[i] = Fig12Row{
			Workload: c.wl.Name, Class: c.class, Mode: c.mode.String(),
			MeanSeconds: mean, P95Seconds: p95,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func fig12Run(wl *workloads.Workload, class workloads.InputClass, mode executor.Mode, seed int64) (mean, p95 float64, err error) {
	app, err := fig12App(wl, class, mode, seed)
	if err != nil {
		return 0, 0, err
	}
	var svc []float64
	for _, r := range app.Records {
		svc = append(svc, r.ServiceTime().Seconds())
	}
	p, err := stats.Percentile(svc, 95)
	if err != nil {
		return 0, 0, err
	}
	return stats.Mean(svc), p, nil
}

// fig12App drives one measurement day of pure home execution under mode
// and returns the drained application.
func fig12App(wl *workloads.Workload, class workloads.InputClass, mode executor.Mode, seed int64) (*core.App, error) {
	env, err := core.NewEnv(core.EnvConfig{
		Seed:    seed,
		Start:   EvalStart,
		End:     EvalStart.Add(24 * time.Hour),
		Regions: region.EvaluationFour(),
	})
	if err != nil {
		return nil, err
	}
	app, err := env.NewApp(core.AppConfig{
		Workload:      wl,
		Home:          region.USEast1,
		Mode:          mode,
		Seed:          seed,
		BenchFraction: -1, // pure home execution in all modes
	})
	if err != nil {
		return nil, err
	}
	gap := 24 * time.Hour / fig12Invocations
	app.ScheduleUniform(EvalStart, fig12Invocations, gap, class)
	env.Run()
	if len(app.Records) < fig12Invocations {
		return nil, fmt.Errorf("completed %d of %d", len(app.Records), fig12Invocations)
	}
	return app, nil
}

// Fig12Overheads summarizes the §9.6 headline percentages per class:
// Step Functions' speedup over SNS, and Caribou's overhead over SNS and
// over Step Functions (all geometric means across workloads).
type Fig12Overheads struct {
	Class              workloads.InputClass
	SFFasterThanSNSPct float64
	CaribouOverSNSPct  float64
	CaribouOverSFPct   float64
}

// SummarizeFig12 derives the overhead percentages.
func SummarizeFig12(rows []Fig12Row) []Fig12Overheads {
	type key struct {
		wl    string
		class workloads.InputClass
	}
	means := map[key]map[string]float64{}
	classes := map[workloads.InputClass]bool{}
	for _, r := range rows {
		k := key{r.Workload, r.Class}
		if means[k] == nil {
			means[k] = map[string]float64{}
		}
		means[k][r.Mode] = r.MeanSeconds
		classes[r.Class] = true
	}
	var out []Fig12Overheads
	for _, class := range workloads.Classes() {
		if !classes[class] {
			continue
		}
		// Sorted workload order keeps the geometric means independent of
		// map iteration order (log-sums are order-sensitive in the low
		// bits).
		var wls []string
		for k := range means {
			if k.class == class {
				wls = append(wls, k.wl)
			}
		}
		sort.Strings(wls)
		var snsOverSF, cbOverSNS, cbOverSF []float64
		for _, wl := range wls {
			m := means[key{wl, class}]
			sf, sns, cb := m["stepfunctions"], m["sns"], m["caribou"]
			if sf <= 0 || sns <= 0 || cb <= 0 {
				continue
			}
			snsOverSF = append(snsOverSF, sns/sf)
			cbOverSNS = append(cbOverSNS, cb/sns)
			cbOverSF = append(cbOverSF, cb/sf)
		}
		g1, err1 := stats.GeometricMean(snsOverSF)
		g2, err2 := stats.GeometricMean(cbOverSNS)
		g3, err3 := stats.GeometricMean(cbOverSF)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		out = append(out, Fig12Overheads{
			Class:              class,
			SFFasterThanSNSPct: (1 - 1/g1) * 100,
			CaribouOverSNSPct:  (g2 - 1) * 100,
			CaribouOverSFPct:   (g3 - 1) * 100,
		})
	}
	return out
}

// PrintFig12 renders the comparison and headline overheads.
func PrintFig12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintf(w, "Fig 12 — workflow execution time by orchestrator\n")
	fmt.Fprintf(w, "%-24s %-6s %-14s %10s %10s\n", "workload", "class", "orchestrator", "mean(s)", "p95(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %-6s %-14s %10.3f %10.3f\n", r.Workload, r.Class, r.Mode, r.MeanSeconds, r.P95Seconds)
	}
	for _, o := range SummarizeFig12(rows) {
		fmt.Fprintf(w, "\n%s inputs: Step Functions %.1f%% faster than SNS; Caribou +%.2f%% over SNS; +%.2f%% over Step Functions\n",
			o.Class, o.SFFasterThanSNSPct, o.CaribouOverSNSPct, o.CaribouOverSFPct)
	}
}
