// Command caribou-eval regenerates every table and figure of the paper's
// evaluation (§9) on the simulated substrate, plus the extensions and
// ablations beyond it.
//
// Usage:
//
//	caribou-eval [flags] <experiment>
//
// where <experiment> is one of eval.Experiments(), or all, which runs
// every one of them in order; `caribou-eval -h` lists both and every
// flag. The -quick flag runs each experiment at its own reduced scale for
// a fast sanity pass; -plot adds terminal charts and -csv DIR writes
// per-experiment CSV files.
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
	"time"

	"caribou/internal/diag"
	"caribou/internal/eval"
	"caribou/internal/runstore"
	"caribou/internal/solver"
	"caribou/internal/telemetry"
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
	scale := eval.Scale{Seed: f.seed, Quick: f.quick, Pool: pool}
	out := eval.Output{W: os.Stdout, Timings: os.Stderr, Plot: f.plot, CSVDir: f.csvDir}
	if err := run(name, scale, out); err != nil {
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
	fs.StringVar(&f.cacheDir, "cache-dir", "", "content-addressed run cache directory; warm re-runs execute zero solver work")
	fs.BoolVar(&f.plot, "plot", false, "also render terminal charts of the figure shapes")
	fs.StringVar(&f.csvDir, "csv", "", "directory to also write per-experiment CSV files into")
	fs.Int64Var(&f.seed, "seed", 17, "experiment seed")
	fs.IntVar(&f.workers, "workers", 0, "concurrent experiment runs (0 = GOMAXPROCS)")
	fs.StringVar(&f.evalMode, "eval-mode", "", "solver evaluation path: untaped, the draw-per-sample reference (default: shared sweeps over per-plan bases; the two are bit-identical)")
	f.diag = diag.Register(fs)
	return f
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, "usage: caribou-eval [flags] <experiment>\n\nexperiments:\n")
	paper := true
	for _, e := range eval.Experiments() {
		if paper && !e.Paper {
			fmt.Fprintf(w, "\nextensions and ablations (beyond the paper's exhibits):\n")
			paper = false
		}
		fmt.Fprintf(w, "  %-15s %s\n", e.Name, e.Desc)
	}
	fmt.Fprintf(w, "\n  %-15s every experiment, extension and ablation above, in order\n\nflags:\n", "all")
	flag.PrintDefaults()
}

// run runs experiment name, or every experiment in table order for all,
// and reports its wall time on stderr: stdout carries only the
// deterministic figure content, byte-identical at any -workers or
// telemetry setting.
func run(name string, s eval.Scale, o eval.Output) error {
	started := time.Now() //caribou:allow wallclock times the real experiment for the stderr completion line, not simulated time
	sp := telemetry.Default().StartSpan("eval/" + name)
	defer sp.End()
	defer func() {
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(started).Round(time.Millisecond)) //caribou:allow wallclock times the real experiment for the stderr completion line, not simulated time
	}()

	if name == "all" {
		for _, e := range eval.Experiments() {
			fmt.Fprintf(o.W, "\n===== %s =====\n", e.Name)
			if err := run(e.Name, s, o); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range eval.Experiments() {
		if e.Name == name {
			return e.Run(s, o)
		}
	}
	usage()
	return fmt.Errorf("unknown experiment %q", name)
}
