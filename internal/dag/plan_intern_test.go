package dag

import "testing"

func internDAG(t *testing.T) *DAG {
	t.Helper()
	d, err := NewBuilder("intern").
		AddNode(Node{ID: "a"}).
		AddNode(Node{ID: "b"}).
		AddNode(Node{ID: "c"}).
		AddEdge("a", "b").
		AddEdge("a", "c").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInternerRoundTrip(t *testing.T) {
	d := internDAG(t)
	it := NewInterner(d)
	if it.Len() != 3 {
		t.Fatalf("Len = %d", it.Len())
	}
	// Indices follow topological order and round-trip through Node.
	for i, n := range d.Nodes() {
		idx, ok := it.Index(n)
		if !ok || idx != i {
			t.Errorf("Index(%s) = %d,%v, want %d", n, idx, ok, i)
		}
		if it.Node(i) != n {
			t.Errorf("Node(%d) = %s, want %s", i, it.Node(i), n)
		}
	}
	if _, ok := it.Index("ghost"); ok {
		t.Error("unknown stage should not resolve")
	}
}
