package analysis

import "go/ast"

// goroutinePkgs are the approved concurrency packages: the solver's
// batch fan-out, the eval pool, platform's region-limited executor
// machinery, pubsub delivery, telemetry's recorder, and the control
// plane, whose tenant jobs run concurrently on request goroutines.
// Keeping `go` statements inside this set keeps determinism audits
// tractable — every other package is sequential by construction, so
// bit-identity proofs only have to reason about these six.
var goroutinePkgs = []string{
	"caribou/internal/solver",
	"caribou/internal/eval",
	"caribou/internal/platform",
	"caribou/internal/pubsub",
	"caribou/internal/telemetry",
	"caribou/internal/controlplane",
}

// GoroutinesAnalyzer flags `go` statements outside the approved
// concurrency packages.
var GoroutinesAnalyzer = &Analyzer{
	Name: "goroutines",
	Doc:  "restrict go statements to the approved concurrency packages (solver, eval, platform, pubsub, telemetry, controlplane)",
	Run: func(p *Pass) {
		if pathInAny(p.PkgPath, goroutinePkgs) {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Reportf(g.Pos(), "go statement outside the approved concurrency packages (solver, eval, platform, pubsub, telemetry, controlplane): new concurrency widens the determinism audit; route work through eval.Pool or annotate with a reason")
				}
				return true
			})
		}
	},
}
