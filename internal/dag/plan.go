package dag

import (
	"fmt"
	"sort"
	"strings"

	"caribou/internal/region"
)

// Plan is a deployment plan ψ: N → R, assigning every workflow stage to a
// region (§4).
type Plan map[NodeID]region.ID

// NewHomePlan returns a plan deploying every stage of d to home, the
// coarse-grained baseline and fallback deployment.
func NewHomePlan(d *DAG, home region.ID) Plan {
	p := make(Plan, d.Len())
	for _, n := range d.Nodes() {
		p[n] = home
	}
	return p
}

// Regions returns the distinct regions used by the plan, sorted.
//
//caribou:allow unreached the per-event oracle's region set (montecarlo oracle_test.go) and IsSingleRegion's
func (p Plan) Regions() []region.ID {
	set := map[region.ID]bool{}
	for _, r := range p {
		set[r] = true
	}
	out := make([]region.ID, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortedNodes returns the plan's stages in sorted order, for callers
// whose side effects (deployments, accounting) must not depend on map
// iteration order.
func (p Plan) SortedNodes() []NodeID {
	out := make([]NodeID, 0, len(p))
	for n := range p {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the plan compactly, in topological-ish (sorted) order.
func (p Plan) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s→%s", k, p[NodeID(k)])
	}
	b.WriteByte('}')
	return b.String()
}

// IsSingleRegion reports whether all stages share one region.
//
//caribou:allow unreached oracle of TestSolveCoarse: a coarse plan uses one region
func (p Plan) IsSingleRegion() bool { return len(p.Regions()) <= 1 }

// Validate checks that the plan covers exactly the stages of d, that every
// assigned region exists in the catalogue, and that each assignment
// satisfies the merged workflow- and function-level constraints.
//
//caribou:allow unreached oracle of TestQuickSolvedPlansAlwaysSatisfyConstraints: every solved plan is compliant
func (p Plan) Validate(d *DAG, cat *region.Catalogue, workflow region.Constraint) error {
	if len(p) != d.Len() {
		return fmt.Errorf("dag: plan covers %d stages, workflow %s has %d", len(p), d.Name(), d.Len())
	}
	for _, id := range d.Nodes() {
		rid, ok := p[id]
		if !ok {
			return fmt.Errorf("dag: plan missing stage %q", id)
		}
		r, ok := cat.Get(rid)
		if !ok {
			return fmt.Errorf("dag: plan assigns %q to unknown region %q", id, rid)
		}
		n, _ := d.Node(id)
		if !region.Merge(workflow, n.Constraint).Permits(r) {
			return fmt.Errorf("dag: plan assigns %q to %q, violating its compliance constraint", id, rid)
		}
	}
	return nil
}

// HourlyPlans is one deployment plan per hour of day. The solver emits 24
// plans per solve to track diurnal carbon patterns (§5.1); coarser budgets
// may repeat one plan across all hours.
type HourlyPlans [24]Plan

// Uniform returns an HourlyPlans using p for every hour.
func Uniform(p Plan) HourlyPlans {
	var h HourlyPlans
	for i := range h {
		h[i] = p
	}
	return h
}

// At returns the plan in effect at the given hour of day (UTC hour 0-23).
func (h HourlyPlans) At(hour int) Plan {
	if hour < 0 || hour > 23 {
		hour = ((hour % 24) + 24) % 24
	}
	return h[hour]
}

// Interner assigns dense integer indices to a DAG's stages in topological
// order, so hot paths (the compiled evaluation snapshot, the solver's
// assignment vectors) can replace map[NodeID] lookups and Plan cloning
// with slice reads and copies.
type Interner struct {
	order []NodeID
	index map[NodeID]int
}

// NewInterner builds an interner over d's stages.
func NewInterner(d *DAG) *Interner {
	order := d.Nodes()
	idx := make(map[NodeID]int, len(order))
	for i, n := range order {
		idx[n] = i
	}
	return &Interner{order: order, index: idx}
}

// Len reports the number of interned stages.
func (it *Interner) Len() int { return len(it.order) }

// Index returns the dense index of stage n.
func (it *Interner) Index(n NodeID) (int, bool) {
	i, ok := it.index[n]
	return i, ok
}

// Node returns the stage at dense index i.
func (it *Interner) Node(i int) NodeID { return it.order[i] }
