package analysis

import (
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// dettaintTargets are the packages whose exported surface must be
// transitively free of wall-clock and global-rand reach: the solver and
// Monte Carlo engine produce the figures, the eval harness memoizes runs
// by configuration alone, and the control plane's plan bodies must be a
// function of (seed, pushed deltas, virtual time) only.
var dettaintTargets = []string{
	"caribou/internal/solver",
	"caribou/internal/montecarlo",
	"caribou/internal/eval",
	"caribou/internal/controlplane",
}

// dettaintSanctioned are the packages whose wall-clock and rand use is
// the design, not a leak: simclock owns the derived-stream discipline
// and pins its generator against math/rand; telemetry wall-stamps spans
// and events on purpose and never feeds simulation state. Calls into
// these packages carry no taint.
var dettaintSanctioned = []string{
	"caribou/internal/simclock",
	"caribou/internal/telemetry",
}

// DetTaintAnalyzer is the interprocedural version of the wallclock and
// globalrand checks: it propagates "can reach a wall-clock/global-rand
// sink" backwards over the module call graph (static edges plus
// name-and-signature interface dispatch, summary.go) and reports every
// *exported* function of a target package that is tainted, printing one
// offending chain. A per-site //caribou:allow wallclock suppresses only
// the syntactic diagnostic; the taint still flows, which closes the
// "annotated helper two frames below the solver loop" hole. The only
// ways to stop propagation are the sanctioned packages above and an
// explicit //caribou:allow dettaint on the sink site itself (the clock
// seams: injected Clock constructions and real-experiment timing).
var DetTaintAnalyzer = &Analyzer{
	Name: "dettaint",
	Doc:  "flag exported solver/montecarlo/eval/controlplane functions that transitively reach a wall-clock or global-rand sink",
	RunModule: func(mp *ModulePass) {
		runDetTaint(mp)
	},
}

func runDetTaint(mp *ModulePass) {
	g := buildCallGraph(mp.Units)
	nodes, order := g.nodes, g.order
	rev := map[string][]string{} // callee ID -> caller IDs
	for _, id := range order {
		for _, callee := range nodes[id].callees {
			rev[callee] = append(rev[callee], id)
		}
	}

	// Seed: every unsanctioned sink site taints its enclosing function.
	// An //caribou:allow dettaint on the sink's line sanctions the site
	// (and is thereby used, not stale).
	var queue []string
	for _, id := range order {
		n := nodes[id]
		if pathInAny(n.pkg, dettaintSanctioned) {
			continue
		}
		for i := range n.fun.Sinks {
			s := &n.fun.Sinks[i]
			if mp.SiteSanctioned(s.File, s.Line) {
				continue
			}
			if n.sink == nil {
				n.sink = s
				queue = append(queue, id)
			}
		}
	}

	// Breadth-first propagation to callers. FIFO over deterministic seed
	// and edge order makes the recorded chains deterministic too.
	tainted := map[string]bool{}
	for _, id := range queue {
		tainted[id] = true
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		callers := rev[id]
		sort.Strings(callers)
		seen := ""
		for _, c := range callers {
			if c == seen {
				continue
			}
			seen = c
			cn, ok := nodes[c]
			if !ok || tainted[c] || pathInAny(cn.pkg, dettaintSanctioned) {
				continue
			}
			tainted[c] = true
			cn.via = id
			queue = append(queue, c)
		}
	}

	// Report every tainted exported function of a target package, with
	// the chain from it down to the sink.
	for _, id := range order {
		n := nodes[id]
		if !tainted[id] || !n.fun.Exported || !pathInAny(n.pkg, dettaintTargets) {
			continue
		}
		chain, sink := taintChain(nodes, id)
		if sink == nil {
			continue // defensive: broken via-link
		}
		pos := token.Position{Filename: n.fun.File, Line: n.fun.Line, Column: n.fun.Col}
		if len(chain) == 1 {
			mp.Reportf(pos, "exported %s calls %s (%s:%d) directly: derive time/randomness through simclock, or sanction the seam with //caribou:allow dettaint <reason> on the sink line",
				n.fun.Name, sink.Desc, filepath.Base(sink.File), sink.Line)
			continue
		}
		mp.Reportf(pos, "exported %s reaches %s (%s:%d) via %s: derive time/randomness through simclock, or sanction the seam with //caribou:allow dettaint <reason> on the sink line",
			n.fun.Name, sink.Desc, filepath.Base(sink.File), sink.Line, strings.Join(chain, " -> "))
	}
}

// taintChain walks the propagation tree from id down to the sinking
// node, returning display names along the way and the sink itself.
func taintChain(nodes map[string]*graphNode, id string) ([]string, *SinkSum) {
	var chain []string
	for steps := 0; steps < 1024; steps++ {
		n, ok := nodes[id]
		if !ok {
			return chain, nil
		}
		chain = append(chain, n.fun.Name)
		if n.sink != nil {
			return chain, n.sink
		}
		if n.via == "" {
			return chain, nil
		}
		id = n.via
	}
	return chain, nil
}
