// Package dag implements the workflow model of §4: a directed acyclic
// graph of execution stages with exactly one start node, conditional
// edges, and synchronization nodes, together with deployment plans mapping
// stages to regions.
package dag

import (
	"fmt"
	"sort"

	"caribou/internal/region"
)

// NodeID identifies one execution stage. A source-code function may map to
// several stages; each stage is a distinct node so the graph stays acyclic.
type NodeID string

// Node is one execution stage of a workflow.
type Node struct {
	ID       NodeID
	Function string  // name of the source function this stage executes
	MemoryMB float64 // configured memory size; determines vCPU share
	// Constraint is the function-level compliance constraint (§8),
	// merged over the workflow-level constraint at solve time.
	Constraint region.Constraint
}

// Edge is an execution dependency between two stages. A conditional edge
// carries the trigger's historical probability, used by the Monte Carlo
// estimator; unconditional edges have probability 1.
type Edge struct {
	From, To    NodeID
	Conditional bool
	Probability float64
}

// DAG is a validated workflow graph. Construct with Build; a DAG is
// immutable afterwards.
type DAG struct {
	name  string
	nodes map[NodeID]*Node
	order []NodeID // deterministic topological order
	out   map[NodeID][]Edge
	in    map[NodeID][]Edge
	start NodeID
}

// Builder accumulates nodes and edges before validation.
type Builder struct {
	name  string
	nodes []Node
	edges []Edge
}

// NewBuilder starts a workflow graph with the given name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// AddNode adds a stage. Memory defaults to 1769 MB (one vCPU) when
// unset.
func (b *Builder) AddNode(n Node) *Builder {
	if n.MemoryMB <= 0 {
		n.MemoryMB = 1769
	}
	if n.Function == "" {
		n.Function = string(n.ID)
	}
	b.nodes = append(b.nodes, n)
	return b
}

// AddEdge adds an unconditional dependency from → to.
func (b *Builder) AddEdge(from, to NodeID) *Builder {
	b.edges = append(b.edges, Edge{From: from, To: to, Probability: 1})
	return b
}

// AddConditionalEdge adds a conditional dependency taken with probability
// p (clamped to [0, 1]; NaN counts as 0).
func (b *Builder) AddConditionalEdge(from, to NodeID, p float64) *Builder {
	if !(p >= 0) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	b.edges = append(b.edges, Edge{From: from, To: to, Conditional: true, Probability: p})
	return b
}

// Build validates the graph per §4: non-empty, unique node IDs, edges
// referencing known nodes, acyclic, exactly one start node, and every node
// reachable from the start.
func (b *Builder) Build() (*DAG, error) {
	if b.name == "" {
		return nil, fmt.Errorf("dag: workflow name must be non-empty")
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("dag %s: no nodes", b.name)
	}
	d := &DAG{
		name:  b.name,
		nodes: make(map[NodeID]*Node, len(b.nodes)),
		out:   make(map[NodeID][]Edge),
		in:    make(map[NodeID][]Edge),
	}
	for i := range b.nodes {
		n := b.nodes[i]
		if n.ID == "" {
			return nil, fmt.Errorf("dag %s: empty node ID", b.name)
		}
		if _, dup := d.nodes[n.ID]; dup {
			return nil, fmt.Errorf("dag %s: duplicate node %q", b.name, n.ID)
		}
		nn := n
		d.nodes[n.ID] = &nn
	}
	for _, e := range b.edges {
		if _, ok := d.nodes[e.From]; !ok {
			return nil, fmt.Errorf("dag %s: edge from unknown node %q", b.name, e.From)
		}
		if _, ok := d.nodes[e.To]; !ok {
			return nil, fmt.Errorf("dag %s: edge to unknown node %q", b.name, e.To)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("dag %s: self-loop on %q", b.name, e.From)
		}
		for _, prev := range d.out[e.From] {
			if prev.To == e.To {
				return nil, fmt.Errorf("dag %s: duplicate edge %s->%s", b.name, e.From, e.To)
			}
		}
		d.out[e.From] = append(d.out[e.From], e)
		d.in[e.To] = append(d.in[e.To], e)
	}

	// Exactly one start node (no incoming edges).
	var starts []NodeID
	for id := range d.nodes {
		if len(d.in[id]) == 0 {
			starts = append(starts, id)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	if len(starts) != 1 {
		return nil, fmt.Errorf("dag %s: want exactly one start node, have %d (%v)", b.name, len(starts), starts)
	}
	d.start = starts[0]

	order, err := d.topoSort()
	if err != nil {
		return nil, err
	}
	d.order = order
	if len(order) != len(d.nodes) {
		return nil, fmt.Errorf("dag %s: %d of %d nodes unreachable or cyclic", b.name, len(d.nodes)-len(order), len(d.nodes))
	}
	return d, nil
}

// topoSort performs Kahn's algorithm starting from the start node,
// visiting successors in sorted order for determinism. It fails on cycles.
func (d *DAG) topoSort() ([]NodeID, error) {
	indeg := make(map[NodeID]int, len(d.nodes))
	for id := range d.nodes {
		indeg[id] = len(d.in[id])
	}
	frontier := []NodeID{d.start}
	var order []NodeID
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		n := frontier[0]
		frontier = frontier[1:]
		order = append(order, n)
		for _, e := range d.out[n] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				frontier = append(frontier, e.To)
			}
		}
	}
	if len(order) < len(d.nodes) {
		for id, deg := range indeg {
			if deg > 0 && len(d.in[id]) > 0 {
				// Distinguish cycle from disconnection for the error.
				if onCycle(d, id) {
					return nil, fmt.Errorf("dag %s: cycle involving %q", d.name, id)
				}
			}
		}
	}
	return order, nil
}

func onCycle(d *DAG, start NodeID) bool {
	seen := map[NodeID]bool{}
	var walk func(n NodeID) bool
	walk = func(n NodeID) bool {
		if n == start && len(seen) > 0 {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		for _, e := range d.out[n] {
			if walk(e.To) {
				return true
			}
		}
		return false
	}
	return walk(start)
}

// Name returns the workflow name.
func (d *DAG) Name() string { return d.name }

// Start returns the unique start node.
func (d *DAG) Start() NodeID { return d.start }

// Len reports the number of stages.
func (d *DAG) Len() int { return len(d.nodes) }

// Node returns the stage with the given ID.
func (d *DAG) Node(id NodeID) (*Node, bool) {
	n, ok := d.nodes[id]
	return n, ok
}

// Nodes returns all stage IDs in topological order.
//
// Nodes, Out and In return the DAG's own slices, not copies: callers must
// treat them as read-only. Each is capped at its length, so a caller's
// append reallocates instead of writing into the DAG.
func (d *DAG) Nodes() []NodeID { return capped(d.order) }

// Out returns the outgoing edges of n in insertion order; read-only.
func (d *DAG) Out(n NodeID) []Edge { return capped(d.out[n]) }

// In returns the incoming edges of n in insertion order; read-only.
func (d *DAG) In(n NodeID) []Edge { return capped(d.in[n]) }

func capped[T any](s []T) []T { return s[:len(s):len(s)] }

// Edges returns every edge, ordered by topological position of the source.
func (d *DAG) Edges() []Edge {
	m := 0
	for _, n := range d.order {
		m += len(d.out[n])
	}
	out := make([]Edge, 0, m)
	for _, n := range d.order {
		out = append(out, d.out[n]...)
	}
	return out
}

// IsSync reports whether n is a synchronization node (|Ein| > 1, §4).
func (d *DAG) IsSync(n NodeID) bool { return len(d.in[n]) > 1 }

// SyncNodes returns all synchronization nodes in topological order.
func (d *DAG) SyncNodes() []NodeID {
	var out []NodeID
	for _, n := range d.order {
		if d.IsSync(n) {
			out = append(out, n)
		}
	}
	return out
}

// HasConditional reports whether any edge is conditional.
func (d *DAG) HasConditional() bool {
	for _, n := range d.order {
		for _, e := range d.out[n] {
			if e.Conditional {
				return true
			}
		}
	}
	return false
}

// Terminals returns the nodes with no outgoing edges.
func (d *DAG) Terminals() []NodeID {
	out := make([]NodeID, 0, len(d.order))
	for _, n := range d.order {
		if len(d.out[n]) == 0 {
			out = append(out, n)
		}
	}
	return out
}
