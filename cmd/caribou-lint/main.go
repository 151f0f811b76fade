// Command caribou-lint runs the repo's determinism & telemetry analyzer
// suite (internal/analysis) over the whole module and reports findings as
//
//	file:line: [check] message
//
// or, with -json, as a JSON array of {file, line, col, check, message}.
// Output is sorted by (file, line, column, check) in both modes. It exits
// 0 when clean, 1 on findings, 2 on load or usage errors.
//
// Usage:
//
//	caribou-lint [-json] [dir]
//
// -h lists every check with a one-line description.
//
// dir defaults to the current directory; the nearest enclosing go.mod
// determines the module. "./..." is accepted as an alias for "." so the
// invocation reads like the other go tools. The module is loaded and
// linted by analysis.LoadModule + analysis.Lint — the same path
// TestRepoIsLintClean runs under `go test ./...`.
//
// Suppress an individual finding with a trailing (or immediately
// preceding) comment
//
//	//caribou:allow <check> <reason>
//
// where the reason is mandatory — an allow without one is itself a
// finding, and so is an allow that no longer suppresses anything. See
// DESIGN.md "Static analysis" for what each check enforces and why.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"caribou/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of file:line text")
	flag.Usage = func() { usage(flag.CommandLine.Output()) }
	flag.Parse()
	if flag.NArg() > 1 {
		flag.Usage()
		return 2
	}
	dir := "."
	if flag.NArg() == 1 && flag.Arg(0) != "./..." {
		dir = flag.Arg(0)
	}

	out, findings, err := lint(dir, *jsonOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caribou-lint: %v\n", err)
		return 2
	}
	os.Stdout.Write(out)
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "caribou-lint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// usage prints the synopsis, the flags and every check with its doc.
func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: caribou-lint [-json] [dir]\n")
	flag.CommandLine.SetOutput(w)
	flag.PrintDefaults()
	fmt.Fprintf(w, "\nchecks:\n")
	for _, a := range analysis.Analyzers() {
		fmt.Fprintf(w, "  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "  %-10s %s\n", "allow", "flag //caribou:allow comments that name no or an unknown check, give no reason, or suppress nothing")
}

// lint loads the module enclosing dir, runs the suite and renders the
// findings.
func lint(dir string, jsonOut bool) ([]byte, int, error) {
	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		return nil, 0, err
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		return nil, 0, err
	}
	diags := analysis.Lint(pkgs, analysis.Analyzers())
	if jsonOut {
		out, err := analysis.FormatJSON(root, diags)
		return out, len(diags), err
	}
	return analysis.FormatText(root, diags), len(diags), nil
}
