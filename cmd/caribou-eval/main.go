// Command caribou-eval regenerates every table and figure of the paper's
// evaluation (§9) on the simulated substrate, plus the extensions and
// ablations beyond it.
//
// Usage:
//
//	caribou-eval [flags] <experiment>
//
// where <experiment> is one of the paper's exhibits (fig2, table1, fig7,
// fig8, fig9, fig10, fig11, fig12, fig13, table2), an extension or ablation
// (ext-global, ext-temporal, ext-signal, ext-shift, ablate-solver,
// ablate-forecast, ablate-bench), or all, which runs every one of them in
// that order. `caribou-eval -h` lists the flags. The -quick flag shrinks
// workload counts and trace volumes for a fast sanity pass; -plot adds
// terminal charts and -csv DIR writes per-experiment CSV files.
//
// Observability: -trace FILE dumps an NDJSON telemetry trace (spans,
// events, instruments) and -telemetry prints a summary table to stderr;
// both enable the telemetry recorder, which is otherwise off. Telemetry
// is inert — figure output on stdout is bit-identical with it on or off.
// -pprof ADDR serves net/http/pprof, and -cpuprofile/-memprofile write
// runtime profiles. -eval-mode untaped routes every solve through the
// solver's reference evaluation path; stdout stays bit-identical (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"caribou/internal/diag"
	"caribou/internal/eval"
	"caribou/internal/runstore"
	"caribou/internal/solver"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

func main() { os.Exit(realMain()) }

// realMain carries main's body so deferred cleanup (profile flushes,
// trace writes) runs before the process exits.
func realMain() int {
	f := register(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		return 2
	}
	name := flag.Arg(0)

	// Telemetry must be enabled before any component is constructed:
	// instrument handles are captured at construction time.
	stopDiag, err := f.diag.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "caribou-eval: %v\n", err)
		return 1
	}
	defer stopDiag()
	// The evaluation-path override must likewise land before any solver
	// is built. Both modes are bit-identical on stdout — the flag exists
	// so that claim can be checked end-to-end (see EXPERIMENTS.md).
	switch f.evalMode {
	case "":
	case "untaped":
		solver.SetDefaultUntapedEstimates(true)
	default:
		fmt.Fprintf(os.Stderr, "caribou-eval: unknown -eval-mode %q (want untaped)\n", f.evalMode)
		return 2
	}

	// One pool for the whole invocation: figures that share runs (e.g. the
	// coarse home baselines) hit the memo instead of re-executing. With
	// -cache-dir the pool gains a durable tier: results persist across
	// invocations, and a warm cache serves every run from disk with
	// byte-identical stdout.
	pool := eval.NewPool(f.workers)
	var store *runstore.Store
	if f.cacheDir != "" {
		var err error
		store, err = runstore.Open(f.cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "caribou-eval: %v\n", err)
			return 1
		}
		pool.AttachStore(store)
	}
	code := 0
	if err := run(name, runOpts{quick: f.quick, plot: f.plot, csvDir: f.csvDir, seed: f.seed, pool: pool}); err != nil {
		fmt.Fprintf(os.Stderr, "caribou-eval %s: %v\n", name, err)
		code = 1
	}
	if store != nil {
		ps := pool.Stats()
		fmt.Fprintf(os.Stderr, "[cache: submitted=%d executed=%d memo=%d disk=%d writes=%d decode-errors=%d]\n",
			ps.Submitted, ps.Executed, ps.Hits, ps.DiskHits, ps.DiskWrites, ps.DiskDecodeErrors)
	}

	// All diagnostics go to stderr or side files so stdout stays
	// bit-comparable across -workers and telemetry settings.
	if err := f.diag.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "caribou-eval: %v\n", err)
		code = 1
	}
	return code
}

// quickPerDay shrinks learning-day traffic under -quick.
func quickPerDay(quick bool) int {
	if quick {
		return 96
	}
	return 0
}

// cliFlags are the command line's flags.
type cliFlags struct {
	quick, plot                bool
	cacheDir, csvDir, evalMode string
	seed                       int64
	workers                    int
	diag                       *diag.Flags
}

// register defines every flag on fs; usage prints whatever it defines.
func register(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{}
	fs.BoolVar(&f.quick, "quick", false, "reduced workload set and trace volume")
	fs.StringVar(&f.cacheDir, "cache-dir", "", "content-addressed run cache directory (see caribou-sweep); warm re-runs execute zero solver work")
	fs.BoolVar(&f.plot, "plot", false, "also render terminal charts of the figure shapes")
	fs.StringVar(&f.csvDir, "csv", "", "directory to also write per-experiment CSV files into")
	fs.Int64Var(&f.seed, "seed", 17, "experiment seed")
	fs.IntVar(&f.workers, "workers", 0, "concurrent experiment runs (0 = GOMAXPROCS)")
	fs.StringVar(&f.evalMode, "eval-mode", "", "solver evaluation path: untaped, the draw-per-sample reference (default: shared sweeps over per-plan bases; the two are bit-identical)")
	f.diag = diag.Register(fs)
	return f
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `usage: caribou-eval [flags] <experiment>

experiments:
  fig2    grid carbon intensity of the four evaluation regions
  table1  benchmark workflow structures
  fig7    carbon normalized to us-east-1: coarse vs fine strategies
  fig8    normalized carbon vs execution/transmission carbon ratio
  fig9    geomean normalized carbon vs transmission energy factor
  fig10   carbon and relative time vs runtime tolerance
  fig11   week-long adaptive operation (Text2Speech, Azure-style trace)
  fig12   orchestrator overhead: Step Functions vs SNS vs Caribou
  fig13   solve-frequency sweep and forecast quality
  table2  framework capability taxonomy

extensions and ablations (beyond the paper's exhibits):
  ext-global      fine-grained shifting over a global region catalogue
  ext-temporal    temporal vs geospatial vs combined shifting
  ext-signal      ACI vs MCI carbon-signal sensitivity
  ext-shift       input-distribution shift adaptation
  ablate-solver   HBSS/exhaustive vs coarse single-region solving
  ablate-forecast Holt-Winters vs naive persistence forecasting
  ablate-bench    benchmarking-traffic fraction sweep

  all     every experiment, extension and ablation above, in order

flags:
`)
	flag.PrintDefaults()
}

type runOpts struct {
	quick  bool
	plot   bool
	csvDir string
	seed   int64
	pool   *eval.Pool
}

// writeCSV writes rows to <csvDir>/<name>.csv when -csv is set.
func writeCSV(opts runOpts, name string, rows interface{}) error {
	if opts.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(opts.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(opts.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return eval.WriteCSV(f, rows)
}

func run(name string, opts runOpts) error {
	quick, plot, seed, pool := opts.quick, opts.plot, opts.seed, opts.pool
	w := os.Stdout
	started := time.Now() //caribou:allow wallclock times the real experiment for the stderr completion line, not simulated time
	sp := telemetry.Default().StartSpan("eval/" + name)
	defer sp.End()
	// Wall time goes to stderr: stdout carries only the deterministic
	// figure content, byte-identical at any -workers or telemetry setting.
	defer func() {
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(started).Round(time.Millisecond)) //caribou:allow wallclock times the real experiment for the stderr completion line, not simulated time
	}()

	var quickWLs []*workloads.Workload
	var quickClasses []workloads.InputClass
	if quick {
		quickWLs = []*workloads.Workload{workloads.Text2SpeechCensoring(), workloads.ImageProcessing()}
		quickClasses = []workloads.InputClass{workloads.Small}
	}

	switch name {
	case "fig2":
		series, err := eval.Fig2(eval.Fig2Options{Seed: seed})
		if err != nil {
			return err
		}
		eval.PrintFig2(w, series)
		if plot {
			eval.PlotFig2(w, series)
		}
		stats, err := eval.Fig2Stats(seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nEvaluation-week averages (gCO2eq/kWh): %v\n", stats)
	case "table1":
		eval.PrintTable1(w, eval.Table1())
	case "table2":
		eval.PrintTable2(w, eval.Table2())
	case "fig7":
		rows, err := eval.Fig7(eval.Fig7Options{Seed: seed, Workloads: quickWLs, Classes: quickClasses, Pool: pool})
		if err != nil {
			return err
		}
		eval.PrintFig7(w, rows)
		if err := writeCSV(opts, "fig7", rows); err != nil {
			return err
		}
		if plot {
			eval.PlotFig7(w, rows)
		}
	case "fig8":
		points, err := eval.Fig8(eval.Fig8Options{Seed: seed, Workloads: quickWLs, Classes: quickClasses, Pool: pool})
		if err != nil {
			return err
		}
		eval.PrintFig8(w, points)
		if err := writeCSV(opts, "fig8", points); err != nil {
			return err
		}
	case "fig9":
		opt := eval.Fig9Options{Seed: seed, Workloads: quickWLs, Classes: quickClasses, Pool: pool}
		if quick {
			opt.Factors = []float64{1e-4, 1e-3, 1e-2}
		}
		points, err := eval.Fig9(opt)
		if err != nil {
			return err
		}
		eval.PrintFig9(w, points)
		if err := writeCSV(opts, "fig9", points); err != nil {
			return err
		}
		if plot {
			eval.PlotFig9(w, points)
		}
	case "fig10":
		opt := eval.Fig10Options{Seed: seed, Pool: pool}
		if quick {
			opt.Tolerances = []float64{0, 5, 10}
		}
		points, err := eval.Fig10(opt)
		if err != nil {
			return err
		}
		eval.PrintFig10(w, points)
		if err := writeCSV(opts, "fig10", points); err != nil {
			return err
		}
	case "fig11":
		opt := eval.Fig11Options{Seed: seed, Pool: pool}
		if quick {
			opt.Days = 3
			opt.PerDay = 300
		}
		results, err := eval.Fig11(opt)
		if err != nil {
			return err
		}
		eval.PrintFig11(w, results)
		if plot {
			eval.PlotFig11(w, results)
		}
	case "fig12":
		rows, err := eval.Fig12(eval.Fig12Options{Seed: seed, Workloads: quickWLs, Classes: quickClasses, Pool: pool})
		if err != nil {
			return err
		}
		eval.PrintFig12(w, rows)
		if err := writeCSV(opts, "fig12", rows); err != nil {
			return err
		}
	case "fig13":
		opt := eval.Fig13Options{Seed: seed, Pool: pool}
		if quick {
			opt.Frequencies = []int{1, 4, 7}
			opt.PerDay = 400
			opt.Days = 7
		}
		a, b, err := eval.Fig13(opt)
		if err != nil {
			return err
		}
		eval.PrintFig13(w, a, b)
		if err := writeCSV(opts, "fig13a", a); err != nil {
			return err
		}
		if err := writeCSV(opts, "fig13b", b); err != nil {
			return err
		}
		if plot {
			eval.PlotFig13b(w, b)
		}
	case "ext-global":
		rows, err := eval.ExtGlobal(pool, quickWLs, seed, quickPerDay(quick))
		if err != nil {
			return err
		}
		eval.PrintExtGlobal(w, rows)
	case "ext-temporal":
		rows, err := eval.ExtTemporal(pool, quickWLs, seed, quickPerDay(quick))
		if err != nil {
			return err
		}
		eval.PrintExtTemporal(w, rows)
	case "ext-signal":
		rows, err := eval.ExtSignal(pool, quickWLs, seed, quickPerDay(quick))
		if err != nil {
			return err
		}
		eval.PrintExtSignal(w, rows)
	case "ext-shift":
		opt := eval.ExtShiftOptions{Seed: seed, Pool: pool}
		if quick {
			opt.Days = 4
			opt.PerDay = 120
		}
		rows, err := eval.ExtShift(opt)
		if err != nil {
			return err
		}
		eval.PrintExtShift(w, rows)
	case "ablate-solver":
		rows, err := eval.AblationSolver(pool, seed, quickPerDay(quick))
		if err != nil {
			return err
		}
		eval.PrintAblationSolver(w, os.Stderr, rows)
	case "ablate-forecast":
		rows, err := eval.AblationForecast(seed)
		if err != nil {
			return err
		}
		eval.PrintAblationForecast(w, rows)
	case "ablate-bench":
		rows, err := eval.AblationBenchTraffic(pool, seed, quickPerDay(quick))
		if err != nil {
			return err
		}
		eval.PrintAblationBenchTraffic(w, rows)
	case "all":
		for _, n := range []string{
			"fig2", "table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "table2",
			"ext-global", "ext-temporal", "ext-signal", "ext-shift", "ablate-solver", "ablate-forecast", "ablate-bench",
		} {
			fmt.Fprintf(w, "\n===== %s =====\n", n)
			if err := run(n, opts); err != nil {
				return err
			}
		}
	default:
		usage()
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
