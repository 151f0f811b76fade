package eval

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"caribou/internal/workloads"
)

// Scale is how large an experiment runs and where its runs execute. Each
// experiment derives everything else from it — workloads, input classes,
// swept parameters, trace volumes — so the reduced set -quick runs is
// decided once, next to the experiment it reduces.
type Scale struct {
	Seed int64
	// Quick selects each experiment's own reduced set for a fast sanity
	// pass.
	Quick bool
	// Pool runs and memoizes the experiment's runs; nil uses a private
	// default-width pool.
	Pool *Pool
}

// pick returns quick under s.Quick and full otherwise.
func pick[T any](s Scale, full, quick T) T {
	if s.Quick {
		return quick
	}
	return full
}

// workloads is the workload set of the experiments that cover Table 1:
// all five workflows, or Text2Speech Censoring and Image Processing.
func (s Scale) workloads() []*workloads.Workload {
	if s.Quick {
		return []*workloads.Workload{workloads.Text2SpeechCensoring(), workloads.ImageProcessing()}
	}
	return workloads.All()
}

// classes is the input-class set of those experiments: both, or small.
func (s Scale) classes() []workloads.InputClass {
	return pick(s, workloads.Classes(), []workloads.InputClass{workloads.Small})
}

// perDay is the daily invocation rate of the extensions' and ablations'
// learning and measured days.
func (s Scale) perDay() int { return pick(s, 192, 96) }

// seed is the seed of the experiments that run outside RunConfig: a zero
// seed means 17, as RunConfig's default does.
func (s Scale) seed() int64 {
	if s.Seed == 0 {
		return 17
	}
	return s.Seed
}

// Output is where an experiment writes.
type Output struct {
	// W receives the figure content, which is deterministic: byte for byte
	// the same at any worker count or telemetry setting.
	W io.Writer
	// Timings receives wall-clock columns (ablate-solver's solve times);
	// nil discards them.
	Timings io.Writer
	// Plot also renders terminal charts of the figure shapes.
	Plot bool
	// CSVDir, when set, also receives one <name>.csv per figure table.
	CSVDir string
}

// csv writes rows to <CSVDir>/<name>.csv when CSVDir is set.
func (o Output) csv(name string, rows interface{}) error {
	if o.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.CSVDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.CSVDir, name+".csv"))
	if err != nil {
		return err
	}
	if err := WriteCSV(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Experiment is one exhibit of the evaluation, or one extension or
// ablation beyond it.
type Experiment struct {
	Name string
	// Desc is the one-line description the usage text prints.
	Desc string
	// Paper marks the paper's own exhibits; the rest extend or ablate it.
	Paper bool
	Run   func(Scale, Output) error
}

// Experiments lists every experiment in the order caribou-eval's all runs
// them: the paper's exhibits, then the extensions and ablations.
func Experiments() []Experiment {
	return []Experiment{
		{"fig2", "grid carbon intensity of the four evaluation regions", true, runFig2},
		{"table1", "benchmark workflow structures", true, runTable1},
		{"fig7", "carbon normalized to us-east-1: coarse vs fine strategies", true, runFig7},
		{"fig8", "normalized carbon vs execution/transmission carbon ratio", true, runFig8},
		{"fig9", "geomean normalized carbon vs transmission energy factor", true, runFig9},
		{"fig10", "carbon and relative time vs runtime tolerance", true, runFig10},
		{"fig11", "week-long adaptive operation (Text2Speech, Azure-style trace)", true, runFig11},
		{"fig12", "orchestrator overhead: Step Functions vs SNS vs Caribou", true, runFig12},
		{"fig13", "solve-frequency sweep and forecast quality", true, runFig13},
		{"table2", "framework capability taxonomy", true, runTable2},
		{"ext-global", "fine-grained shifting over a global region catalogue", false, runExtGlobal},
		{"ext-temporal", "temporal vs geospatial vs combined shifting", false, runExtTemporal},
		{"ext-signal", "ACI vs MCI carbon-signal sensitivity", false, runExtSignal},
		{"ext-shift", "input-distribution shift adaptation", false, runExtShift},
		{"ablate-solver", "HBSS/exhaustive vs coarse single-region solving", false, runAblationSolver},
		{"ablate-forecast", "Holt-Winters vs naive persistence forecasting", false, runAblationForecast},
		{"ablate-bench", "benchmarking-traffic fraction sweep", false, runAblationBench},
	}
}

func runFig2(s Scale, o Output) error {
	series, err := Fig2(Fig2Options{Seed: s.Seed})
	if err != nil {
		return err
	}
	PrintFig2(o.W, series)
	if o.Plot {
		PlotFig2(o.W, series)
	}
	stats, err := Fig2Stats(s.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.W, "\nEvaluation-week averages (gCO2eq/kWh): %v\n", stats)
	return nil
}

func runTable1(_ Scale, o Output) error {
	PrintTable1(o.W, Table1())
	return nil
}

func runFig7(s Scale, o Output) error {
	rows, err := Fig7(fig7Options(s))
	if err != nil {
		return err
	}
	PrintFig7(o.W, rows)
	if err := o.csv("fig7", rows); err != nil {
		return err
	}
	if o.Plot {
		PlotFig7(o.W, rows)
	}
	return nil
}

func runFig8(s Scale, o Output) error {
	rows, err := Fig8(s)
	if err != nil {
		return err
	}
	PrintFig8(o.W, rows)
	return o.csv("fig8", rows)
}

func runFig9(s Scale, o Output) error {
	rows, err := Fig9(s)
	if err != nil {
		return err
	}
	PrintFig9(o.W, rows)
	if err := o.csv("fig9", rows); err != nil {
		return err
	}
	if o.Plot {
		PlotFig9(o.W, rows)
	}
	return nil
}

func runFig10(s Scale, o Output) error {
	rows, err := Fig10(s)
	if err != nil {
		return err
	}
	PrintFig10(o.W, rows)
	return o.csv("fig10", rows)
}

func runFig11(s Scale, o Output) error {
	rows, err := Fig11(s)
	if err != nil {
		return err
	}
	PrintFig11(o.W, rows)
	if o.Plot {
		PlotFig11(o.W, rows)
	}
	return nil
}

func runFig12(s Scale, o Output) error {
	rows, err := Fig12(s)
	if err != nil {
		return err
	}
	PrintFig12(o.W, rows)
	return o.csv("fig12", rows)
}

func runFig13(s Scale, o Output) error {
	a, b, err := Fig13(s)
	if err != nil {
		return err
	}
	PrintFig13(o.W, a, b)
	if err := o.csv("fig13a", a); err != nil {
		return err
	}
	if err := o.csv("fig13b", b); err != nil {
		return err
	}
	if o.Plot {
		PlotFig13b(o.W, b)
	}
	return nil
}

func runTable2(_ Scale, o Output) error {
	PrintTable2(o.W, Table2())
	return nil
}

func runExtGlobal(s Scale, o Output) error {
	rows, err := ExtGlobal(s)
	if err != nil {
		return err
	}
	PrintExtGlobal(o.W, rows)
	return nil
}

func runExtTemporal(s Scale, o Output) error {
	rows, err := ExtTemporal(s)
	if err != nil {
		return err
	}
	PrintExtTemporal(o.W, rows)
	return nil
}

func runExtSignal(s Scale, o Output) error {
	rows, err := ExtSignal(s)
	if err != nil {
		return err
	}
	PrintExtSignal(o.W, rows)
	return nil
}

func runExtShift(s Scale, o Output) error {
	rows, err := ExtShift(s)
	if err != nil {
		return err
	}
	PrintExtShift(o.W, rows)
	return nil
}

func runAblationSolver(s Scale, o Output) error {
	rows, err := AblationSolver(s)
	if err != nil {
		return err
	}
	PrintAblationSolver(o.W, o.Timings, rows)
	return nil
}

func runAblationForecast(s Scale, o Output) error {
	rows, err := AblationForecast(s.Seed)
	if err != nil {
		return err
	}
	PrintAblationForecast(o.W, rows)
	return nil
}

func runAblationBench(s Scale, o Output) error {
	rows, err := AblationBenchTraffic(s)
	if err != nil {
		return err
	}
	PrintAblationBenchTraffic(o.W, rows)
	return nil
}
