package analysis

import "go/token"

// UnreachedAnalyzer finds dead code: it walks the module call graph
// (callgraph.go) forward from the roots — main and init of every main
// package, the root package's exported API, package initializers, and
// every module method the standard library may call through one of its
// exported interfaces — and reports each function under internal/ that
// no root reaches. Test oracles and fakes that only tests call survive
// with //caribou:allow unreached <reason naming the test>. A module
// without a main or root package has no roots and gets no report.
var UnreachedAnalyzer = &Analyzer{
	Name:      "unreached",
	Doc:       "flag internal/ functions that no binary, root-package API, package initializer or standard-library interface call reaches",
	RunModule: runUnreached,
}

func runUnreached(mp *ModulePass) {
	entry := false
	var std []DynCall
	for _, u := range mp.Units {
		entry = entry || u.Summary.Entry
		std = append(std, u.Summary.StdIface...)
	}
	if !entry {
		return
	}
	g := buildCallGraph(mp.Units)
	queue := g.dispatch(std)
	for _, id := range g.order {
		if g.nodes[id].fun.Root {
			queue = append(queue, id)
		}
	}
	reached := map[string]bool{}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if n, ok := g.nodes[id]; ok && !reached[id] {
			reached[id] = true
			queue = append(queue, n.callees...)
		}
	}
	for _, id := range g.order {
		n := g.nodes[id]
		if reached[id] || !pathIn(n.pkg, modulePrefix(n.pkg)+"/internal") {
			continue
		}
		mp.Reportf(token.Position{Filename: n.fun.File, Line: n.fun.Line, Column: n.fun.Col},
			"%s is reached from no binary, root-package API, package initializer or standard-library interface: delete it, or keep a test oracle or fake with //caribou:allow unreached <reason>", n.fun.Name)
	}
}
