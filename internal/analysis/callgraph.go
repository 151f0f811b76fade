package analysis

import "sort"

// callGraph is the module call graph the module checks walk: one node per
// function summary, each with its resolved callees — static calls,
// function-value references, and every module method that matches an
// interface call site by name and signature.
type callGraph struct {
	nodes   map[string]*graphNode
	order   []string             // node IDs: units path-sorted, functions in declaration order
	methods map[DynCall][]string // (name, sig) -> method func IDs, sorted
}

// graphNode is one function; via is hotpath's propagation state: the
// caller it was reached from.
type graphNode struct {
	fun     *FuncSum
	pkg     string
	callees []string
	via     string
}

// buildCallGraph builds the graph from every unit's summary. Units arrive
// path-sorted and functions in declaration order, so the node order and
// every callee list are deterministic.
func buildCallGraph(units []*PkgUnit) *callGraph {
	g := &callGraph{nodes: map[string]*graphNode{}, methods: map[DynCall][]string{}}
	for _, u := range units {
		for i := range u.Summary.Funcs {
			f := &u.Summary.Funcs[i]
			if _, dup := g.nodes[f.ID]; dup {
				continue // e.g. build-tag twins; first declaration wins
			}
			g.nodes[f.ID] = &graphNode{fun: f, pkg: u.Path}
			g.order = append(g.order, f.ID)
		}
		for _, m := range u.Summary.Methods {
			key := DynCall{Method: m.Method, Sig: m.Sig}
			g.methods[key] = append(g.methods[key], m.FuncID)
		}
	}
	for _, impls := range g.methods {
		sort.Strings(impls)
	}
	for _, id := range g.order {
		n := g.nodes[id]
		n.callees = append(append(n.callees, n.fun.Calls...), g.dispatch(n.fun.Dyn)...)
	}
	return g
}

// dispatch resolves interface call sites to the module methods they may
// invoke.
func (g *callGraph) dispatch(dyn []DynCall) []string {
	var out []string
	for _, d := range dyn {
		out = append(out, g.methods[d]...)
	}
	return out
}
