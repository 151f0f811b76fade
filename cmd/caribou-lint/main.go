// Command caribou-lint runs the repo's determinism & telemetry analyzer
// suite (internal/analysis) over the whole module and reports findings as
//
//	file:line: [check] message
//
// or, with -json, as a JSON array of {file, line, col, check, message}.
// Output is sorted by (file, line, column, check) in both modes and is
// byte-identical between cold and cached runs. It exits 0 when clean, 1
// on findings, 2 on load or usage errors.
//
// Usage:
//
//	caribou-lint [-json] [-cache dir|off] [-workers n] [-stats] [dir]
//	caribou-lint -bench [dir]
//
// dir defaults to the current directory; the nearest enclosing go.mod
// determines the module. "./..." is accepted as an alias for "." so the
// invocation reads like the other go tools.
//
// Per-package results (raw findings, allow comments, and the fact
// summaries the module-level analyzers consume) are cached under
// .caribou-cache/lint/ at the module root, keyed by a hash of the
// package's sources and its module imports' keys, so warm runs skip
// type-checking entirely. -cache off disables the cache; -cache DIR
// relocates it.
//
// -bench wipes the cache, times a cold run, times a warm run, asserts
// the two outputs are byte-identical, and prints the pair in go-bench
// format.
//
// Suppress an individual finding with a trailing (or immediately
// preceding) comment
//
//	//caribou:allow <check> <reason>
//
// where the reason is mandatory — an allow without one is itself a
// finding, and so is an allow that no longer suppresses anything. See
// DESIGN.md "Static analysis v2" for what each check enforces and why.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"caribou/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of file:line text")
	cacheFlag := flag.String("cache", "", "lint cache directory; \"off\" disables (default <module>/.caribou-cache/lint)")
	workers := flag.Int("workers", 0, "concurrent type-check/analyze jobs (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "report package/cache/timing stats to stderr")
	bench := flag.Bool("bench", false, "time a cold and a warm run, assert identical output, print go-bench lines")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: caribou-lint [-json] [-cache dir|off] [-workers n] [-stats] [-bench] [dir]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 1 {
		flag.Usage()
		return 2
	}
	dir := "."
	if flag.NArg() == 1 && flag.Arg(0) != "./..." {
		dir = flag.Arg(0)
	}

	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caribou-lint: %v\n", err)
		return 2
	}
	cacheDir := ""
	switch *cacheFlag {
	case "off":
	case "":
		cacheDir = filepath.Join(root, ".caribou-cache", "lint")
	default:
		cacheDir = *cacheFlag
	}
	opts := analysis.RunOptions{CacheDir: cacheDir, Workers: *workers}

	if *bench {
		return runBench(root, opts, *jsonOut)
	}

	start := time.Now() //caribou:allow wallclock times the lint tool itself for -stats, nothing simulated
	diags, rs, err := analysis.Run(root, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caribou-lint: %v\n", err)
		return 2
	}
	if *stats {
		elapsed := time.Since(start) //caribou:allow wallclock times the lint tool itself for -stats, nothing simulated
		fmt.Fprintf(os.Stderr, "caribou-lint: %d packages, %d cached, %d analyzed, %d type-checked in %v\n",
			rs.Packages, rs.CacheHits, rs.CacheMisses, rs.TypeChecked, elapsed.Round(time.Millisecond))
	}

	out, err := render(root, diags, *jsonOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caribou-lint: %v\n", err)
		return 2
	}
	os.Stdout.Write(out)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "caribou-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func render(root string, diags []analysis.Diagnostic, jsonOut bool) ([]byte, error) {
	if jsonOut {
		return analysis.FormatJSON(root, diags)
	}
	return analysis.FormatText(root, diags), nil
}

// runBench is the timing harness CI's warm-rerun step drives: one cold
// run (cache wiped first), one warm run, a byte-identity assertion
// between them, and two go-bench lines on stdout.
func runBench(root string, opts analysis.RunOptions, jsonOut bool) int {
	if opts.CacheDir == "" {
		fmt.Fprintln(os.Stderr, "caribou-lint: -bench requires the cache (do not pass -cache off)")
		return 2
	}
	if err := os.RemoveAll(opts.CacheDir); err != nil {
		fmt.Fprintf(os.Stderr, "caribou-lint: wiping cache: %v\n", err)
		return 2
	}
	timeRun := func() ([]byte, analysis.RunStats, time.Duration, error) {
		start := time.Now() //caribou:allow wallclock the cold/warm benchmark measures real lint latency
		diags, rs, err := analysis.Run(root, opts)
		elapsed := time.Since(start) //caribou:allow wallclock the cold/warm benchmark measures real lint latency
		if err != nil {
			return nil, rs, elapsed, err
		}
		out, err := render(root, diags, jsonOut)
		return out, rs, elapsed, err
	}
	coldOut, coldStats, cold, err := timeRun()
	if err != nil {
		fmt.Fprintf(os.Stderr, "caribou-lint: cold run: %v\n", err)
		return 2
	}
	warmOut, warmStats, warm, err := timeRun()
	if err != nil {
		fmt.Fprintf(os.Stderr, "caribou-lint: warm run: %v\n", err)
		return 2
	}
	if !bytes.Equal(coldOut, warmOut) {
		fmt.Fprintf(os.Stderr, "caribou-lint: cold and warm outputs differ (%d vs %d bytes)\n", len(coldOut), len(warmOut))
		return 2
	}
	if warmStats.TypeChecked != 0 {
		fmt.Fprintf(os.Stderr, "caribou-lint: warm run type-checked %d package(s); cache is not serving\n", warmStats.TypeChecked)
		return 2
	}
	fmt.Fprintf(os.Stderr, "caribou-lint: cold %v (%d analyzed), warm %v (%d cached), outputs identical (%d bytes)\n",
		cold.Round(time.Millisecond), coldStats.CacheMisses, warm.Round(time.Millisecond), warmStats.CacheHits, len(coldOut))
	fmt.Printf("BenchmarkLintCold 1 %d ns/op\n", cold.Nanoseconds())
	fmt.Printf("BenchmarkLintWarm 1 %d ns/op\n", warm.Nanoseconds())
	return 0
}
