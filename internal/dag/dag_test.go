package dag

import (
	"fmt"
	"maps"
	"testing"
	"testing/quick"

	"caribou/internal/region"
)

// diamond builds start -> {a, b} -> join with a conditional edge to b.
func diamond(t *testing.T) *DAG {
	t.Helper()
	d, err := NewBuilder("diamond").
		AddNode(Node{ID: "start"}).
		AddNode(Node{ID: "a"}).
		AddNode(Node{ID: "b"}).
		AddNode(Node{ID: "join"}).
		AddEdge("start", "a").
		AddConditionalEdge("start", "b", 0.5).
		AddEdge("a", "join").
		AddEdge("b", "join").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildValidDAG(t *testing.T) {
	d := diamond(t)
	if d.Name() != "diamond" || d.Len() != 4 {
		t.Fatalf("name=%s len=%d", d.Name(), d.Len())
	}
	if d.Start() != "start" {
		t.Errorf("start = %s", d.Start())
	}
	if !d.IsSync("join") {
		t.Error("join should be a sync node")
	}
	if d.IsSync("a") {
		t.Error("a is not a sync node")
	}
	if syncs := d.SyncNodes(); len(syncs) != 1 || syncs[0] != "join" {
		t.Errorf("sync nodes = %v", syncs)
	}
	if !d.HasConditional() {
		t.Error("conditional edge not detected")
	}
	if terms := d.Terminals(); len(terms) != 1 || terms[0] != "join" {
		t.Errorf("terminals = %v", terms)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		b    *Builder
	}{
		{"no nodes", NewBuilder("x")},
		{"empty name", NewBuilder("").AddNode(Node{ID: "a"})},
		{"empty node id", NewBuilder("x").AddNode(Node{ID: ""})},
		{"duplicate node", NewBuilder("x").AddNode(Node{ID: "a"}).AddNode(Node{ID: "a"})},
		{"unknown edge source", NewBuilder("x").AddNode(Node{ID: "a"}).AddEdge("zz", "a")},
		{"unknown edge target", NewBuilder("x").AddNode(Node{ID: "a"}).AddEdge("a", "zz")},
		{"self loop", NewBuilder("x").AddNode(Node{ID: "a"}).AddEdge("a", "a")},
		{"duplicate edge", NewBuilder("x").AddNode(Node{ID: "a"}).AddNode(Node{ID: "b"}).AddEdge("a", "b").AddEdge("a", "b")},
		{"two start nodes", NewBuilder("x").AddNode(Node{ID: "a"}).AddNode(Node{ID: "b"})},
		{"cycle", NewBuilder("x").
			AddNode(Node{ID: "s"}).AddNode(Node{ID: "a"}).AddNode(Node{ID: "b"}).
			AddEdge("s", "a").AddEdge("a", "b").AddEdge("b", "a")},
	}
	for _, c := range cases {
		if _, err := c.b.Build(); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestTopologicalOrderProperty(t *testing.T) {
	d := diamond(t)
	pos := map[NodeID]int{}
	for i, n := range d.Nodes() {
		pos[n] = i
	}
	for _, e := range d.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %s->%s violates topo order", e.From, e.To)
		}
	}
}

func TestQuickRandomLayeredDAGsTopoSort(t *testing.T) {
	// Property: random layered DAGs always build, and the returned node
	// order is a topological order.
	f := func(widths [3]uint8, edgeBits uint64) bool {
		b := NewBuilder("rand")
		b.AddNode(Node{ID: "root"})
		var layers [][]NodeID
		prev := []NodeID{"root"}
		bit := 0
		for li, w8 := range widths {
			w := int(w8%3) + 1
			var layer []NodeID
			for i := 0; i < w; i++ {
				id := NodeID(fmt.Sprintf("n%d-%d", li, i))
				b.AddNode(Node{ID: id})
				// Connect from at least one predecessor.
				connected := false
				for _, p := range prev {
					take := edgeBits&(1<<uint(bit%64)) != 0
					bit++
					if take {
						b.AddEdge(p, id)
						connected = true
					}
				}
				if !connected {
					b.AddEdge(prev[0], id)
				}
				layer = append(layer, id)
			}
			layers = append(layers, layer)
			prev = layer
		}
		_ = layers
		d, err := b.Build()
		if err != nil {
			return false
		}
		pos := map[NodeID]int{}
		for i, n := range d.Nodes() {
			pos[n] = i
		}
		for _, e := range d.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return len(d.Nodes()) == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConditionalProbabilityClamping(t *testing.T) {
	d, err := NewBuilder("clamp").
		AddNode(Node{ID: "a"}).
		AddNode(Node{ID: "b"}).
		AddNode(Node{ID: "c"}).
		AddConditionalEdge("a", "b", -0.5).
		AddConditionalEdge("a", "c", 1.5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	out := d.Out("a")
	if out[0].Probability != 0 || out[1].Probability != 1 {
		t.Errorf("probabilities = %v, %v", out[0].Probability, out[1].Probability)
	}
}

func TestDefaultsAppliedOnAddNode(t *testing.T) {
	d, err := NewBuilder("defaults").AddNode(Node{ID: "only"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	n, _ := d.Node("only")
	if n.MemoryMB != 1769 {
		t.Errorf("default memory = %v", n.MemoryMB)
	}
	if n.Function != "only" {
		t.Errorf("default function = %q", n.Function)
	}
}

// TestAccessorsCopySemantics: Nodes, Out and In share the DAG's slices
// read-only, and an append to a returned slice copies it. The fan of three
// leaves the DAG's slices spare capacity (5 nodes, 3 edges each way), so an
// uncapped accessor would let two callers' appends write the same slot.
func TestAccessorsCopySemantics(t *testing.T) {
	b := NewBuilder("fan").AddNode(Node{ID: "start"}).AddNode(Node{ID: "join"})
	for _, id := range []NodeID{"a", "b", "c"} {
		b = b.AddNode(Node{ID: id}).AddEdge("start", id).AddEdge(id, "join")
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nodes := fmt.Sprint(d.Nodes())
	x, y := append(d.Nodes(), "x"), append(d.Nodes(), "y")
	if x[len(x)-1] != "x" || y[len(y)-1] != "y" || fmt.Sprint(d.Nodes()) != nodes {
		t.Errorf("append to Nodes wrote into the DAG: %v %v, nodes %v", x, y, d.Nodes())
	}
	for _, acc := range []struct {
		name string
		get  func() []Edge
	}{{"Out", func() []Edge { return d.Out("start") }}, {"In", func() []Edge { return d.In("join") }}} {
		before := fmt.Sprint(acc.get())
		x, y := append(acc.get(), Edge{To: "x"}), append(acc.get(), Edge{To: "y"})
		if x[len(x)-1].To != "x" || y[len(y)-1].To != "y" || fmt.Sprint(acc.get()) != before {
			t.Errorf("append to %s wrote into the DAG: %v %v", acc.name, x, y)
		}
	}
}

func TestHomePlanAndValidate(t *testing.T) {
	d := diamond(t)
	cat := region.NorthAmerica()
	p := NewHomePlan(d, region.USEast1)
	if len(p) != d.Len() || !p.IsSingleRegion() {
		t.Fatalf("home plan = %v", p)
	}
	if err := p.Validate(d, cat, region.Constraint{}); err != nil {
		t.Fatal(err)
	}

	// Missing stage.
	q := maps.Clone(p)
	delete(q, "a")
	if err := q.Validate(d, cat, region.Constraint{}); err == nil {
		t.Error("want error for missing stage")
	}

	// Unknown region.
	q = maps.Clone(p)
	q["a"] = "aws:nowhere"
	if err := q.Validate(d, cat, region.Constraint{}); err == nil {
		t.Error("want error for unknown region")
	}

	// Workflow-level constraint violation.
	q = maps.Clone(p)
	q["a"] = region.CACentral1
	if err := q.Validate(d, cat, region.Constraint{AllowedCountries: []string{"US"}}); err == nil {
		t.Error("want compliance violation")
	}
}

func TestPlanValidateFunctionLevelConstraint(t *testing.T) {
	d, err := NewBuilder("pin").
		AddNode(Node{ID: "s", Constraint: region.Constraint{AllowedRegions: []region.ID{region.USEast1}}}).
		AddNode(Node{ID: "t"}).
		AddEdge("s", "t").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cat := region.NorthAmerica()
	p := NewHomePlan(d, region.USWest2)
	if err := p.Validate(d, cat, region.Constraint{}); err == nil {
		t.Error("function-level pin not enforced")
	}
	p["s"] = region.USEast1
	if err := p.Validate(d, cat, region.Constraint{}); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestPlanEqualCloneRegions(t *testing.T) {
	d := diamond(t)
	p := NewHomePlan(d, region.USEast1)
	q := maps.Clone(p)
	if !maps.Equal(p, q) {
		t.Error("clone not equal")
	}
	q["a"] = region.CACentral1
	if maps.Equal(p, q) {
		t.Error("diverged plans reported equal")
	}
	if p["a"] != region.USEast1 {
		t.Error("clone aliases original")
	}
	regions := q.Regions()
	if len(regions) != 2 {
		t.Errorf("regions = %v", regions)
	}
	if q.IsSingleRegion() {
		t.Error("multi-region plan reported single")
	}
	if maps.Equal(p, Plan{}) {
		t.Error("different sizes reported equal")
	}
}

func TestPlanString(t *testing.T) {
	d := diamond(t)
	p := NewHomePlan(d, region.USEast1)
	s := p.String()
	if s == "" || s[0] != '{' {
		t.Errorf("plan string = %q", s)
	}
}

func TestHourlyPlans(t *testing.T) {
	d := diamond(t)
	home := NewHomePlan(d, region.USEast1)
	h := Uniform(home)
	other := NewHomePlan(d, region.CACentral1)
	h[3] = other
	if !maps.Equal(h.At(3), other) || !maps.Equal(h.At(4), home) {
		t.Error("At returned wrong plan")
	}
	// Out-of-range hours wrap.
	if !maps.Equal(h.At(27), other) || !maps.Equal(h.At(-21), other) {
		t.Error("hour wrapping broken")
	}
}
