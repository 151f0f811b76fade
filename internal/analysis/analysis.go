// Package analysis is the repo's in-tree static analyzer framework: a
// harness over the standard library's go/ast, go/parser, and go/types
// (source importer — no x/tools dependency) that encodes the determinism
// and telemetry invariants the dynamic parity tests assume.
//
// Every figure in this reproduction must be byte-identical across worker
// counts, telemetry on/off, and taped vs untaped Monte Carlo paths. The
// analyzers turn the rules that make that possible — simulated time only,
// derived RNG streams only, no output from unsorted map iteration, no
// formatting or allocation on hot paths, goroutines only where the
// determinism audit expects them, atomically published values never
// mutated after publication — into machine-checked diagnostics, so the
// invariants survive refactoring instead of living in reviewers' heads.
//
// v2 adds a whole-module layer: per-package analyzers inspect one
// type-checked package at a time, while module analyzers (hotpath,
// unreached, atomicpub's ownership rule) run over a
// conservative call graph built from per-package fact summaries
// (summary.go) — static call edges, function-value references and
// name-and-signature method-set matching for interface dispatch. A hot
// path is rooted in code, not in a list: the loops of a function whose
// doc comment carries //caribou:hot, and every function they reach.
//
// A finding can be suppressed with a trailing or preceding comment
//
//	//caribou:allow <check> <reason>
//
// where the reason is mandatory: an allow comment without one is itself
// a diagnostic (check "allow"), and so is a well-formed allow that
// suppresses nothing — burn-downs cannot leave dead annotations behind.
// See cmd/caribou-lint for the command and DESIGN.md "Static analysis"
// for the rationale behind each check.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the check that fired, and a
// human-readable message, rendered as "file:line: [check] message".
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// Analyzer is one named check. Run inspects a single type-checked
// package; RunModule inspects the whole module through its fact
// summaries. Either may be nil.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass hands one analyzer one package. Reportf attaches the analyzer's
// name to each diagnostic.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	PkgPath string
	Info    *types.Info

	check string
	out   *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePass hands one module analyzer the whole module: every package's
// fact summary, in import-path order. Positions are plain
// token.Positions (summaries carry no FileSet).
type ModulePass struct {
	Units []*PkgUnit

	check string
	out   *[]Diagnostic
}

// Reportf records a module-level finding at pos.
func (mp *ModulePass) Reportf(pos token.Position, format string, args ...any) {
	*mp.out = append(*mp.out, Diagnostic{
		Pos:     pos,
		Check:   mp.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// PkgUnit is one package's analysis result: the raw (pre-suppression)
// findings of every per-package analyzer, the parsed allow comments, the
// malformed-allow diagnostics, and the fact summary the module phase
// consumes.
type PkgUnit struct {
	Path       string
	Raw        []Diagnostic
	AllowDiags []Diagnostic
	Allows     []AllowComment
	Summary    *PkgSummary
}

// Analyzers returns the full suite in a fixed order. The "allow" check
// (malformed and stale suppression comments) is implemented by finish
// itself, not listed here, but its name is reserved — see ValidChecks.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		GlobalRandAnalyzer,
		MapOrderAnalyzer,
		GoroutinesAnalyzer,
		HotPathAnalyzer,
		AtomicPubAnalyzer,
		UnreachedAnalyzer,
	}
}

// ValidChecks returns the set of check names an //caribou:allow comment
// may name: every analyzer plus the reserved "allow" meta-check.
func ValidChecks(analyzers []*Analyzer) map[string]bool {
	valid := map[string]bool{allowCheck: true}
	for _, a := range analyzers {
		valid[a.Name] = true
	}
	return valid
}

// analyzePackage runs every per-package analyzer over pkg and builds its
// fact summary.
func analyzePackage(pkg *Package, analyzers []*Analyzer) *PkgUnit {
	unit := &PkgUnit{Path: pkg.Path}
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Fset:    pkg.Fset,
			Files:   pkg.Files,
			PkgPath: pkg.Path,
			Info:    pkg.Info,
			check:   a.Name,
			out:     &unit.Raw,
		}
		a.Run(pass)
	}
	allows, diags := collectAllows(pkg.Fset, pkg.Files, ValidChecks(analyzers))
	unit.Allows = allows
	unit.AllowDiags = diags
	unit.Summary = BuildSummary(pkg)
	return unit
}

// finish combines per-package units into the final diagnostic list: it
// runs the module analyzers over the summaries, applies //caribou:allow
// suppressions, reports malformed and stale allow comments, and returns
// everything sorted by (file, line, column, check). Unit order does not
// matter — finish sorts them by path first.
func finish(units []*PkgUnit, analyzers []*Analyzer) []Diagnostic {
	sort.Slice(units, func(i, j int) bool { return units[i].Path < units[j].Path })

	allows := newAllowIndex(units)

	var raw []Diagnostic
	for _, u := range units {
		raw = append(raw, u.Raw...)
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{Units: units, check: a.Name, out: &raw}
		a.RunModule(mp)
	}

	var out []Diagnostic
	for _, u := range units {
		out = append(out, u.AllowDiags...)
	}
	for _, d := range raw {
		if !allows.use(d.Check, d.Pos.Filename, d.Pos.Line) {
			out = append(out, d)
		}
	}
	out = append(out, allows.stale()...)

	sortDiagnostics(out)
	return out
}

// Lint runs the full suite — per-package analyzers, module analyzers,
// suppression, allow validation — over the given packages and returns
// the surviving findings in canonical order.
func Lint(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	units := make([]*PkgUnit, 0, len(pkgs))
	for _, pkg := range pkgs {
		units = append(units, analyzePackage(pkg, analyzers))
	}
	return finish(units, analyzers)
}

// sortDiagnostics orders diagnostics by (file, line, column, check,
// message) — the canonical output order pinned by the golden test.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// pathIn reports whether pkgPath is path itself or a package under it.
func pathIn(pkgPath, prefix string) bool {
	return pkgPath == prefix || (len(pkgPath) > len(prefix) &&
		pkgPath[:len(prefix)] == prefix && pkgPath[len(prefix)] == '/')
}

// pathInAny reports whether pkgPath sits in any of the prefixes.
func pathInAny(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if pathIn(pkgPath, p) {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the package-level function it
// invokes, or nil for method calls, conversions, and calls through
// variables. Renamed imports resolve correctly because the lookup goes
// through the type checker's Uses map, not the source text.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// isPkgFunc reports whether call invokes a package-level function from
// pkgPath whose name is in names.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names map[string]bool) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && names[fn.Name()]
}
