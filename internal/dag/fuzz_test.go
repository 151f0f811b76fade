package dag_test

import (
	"math"
	"testing"
	"time"

	"caribou/internal/dag"
	"caribou/internal/executor"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/workloads"
)

// graphFromBytes maps fuzz input to a builder: the first byte is the node
// count, one byte per node picks its id from a nine-entry alphabet that
// contains the empty id (so duplicates and empty ids occur), and each
// following triple is an edge — two ids from the same alphabet (unknown
// endpoints, self-loops, cycles, duplicate edges, several start nodes) and
// a byte that makes it unconditional or conditional with a probability
// that may be NaN, negative, infinite or above one.
func graphFromBytes(data []byte) *dag.Builder {
	ids := []dag.NodeID{"a", "b", "c", "d", "e", "f", "g", "h", ""}
	b := dag.NewBuilder("fuzz")
	if len(data) == 0 {
		return b
	}
	n := int(data[0]) % 9
	data = data[1:]
	for i := 0; i < n && len(data) > 0; i++ {
		b.AddNode(dag.Node{ID: ids[int(data[0])%len(ids)]})
		data = data[1:]
	}
	for ; len(data) >= 3; data = data[3:] {
		from, to, k := ids[int(data[0])%len(ids)], ids[int(data[1])%len(ids)], data[2]
		if k&1 == 0 {
			b.AddEdge(from, to)
			continue
		}
		p := float64(k) / 255
		switch (k >> 1) % 6 {
		case 0:
			p = math.NaN()
		case 1:
			p = -1
		case 2:
			p = math.Inf(1)
		case 3:
			p = 2
		}
		b.AddConditionalEdge(from, to, p)
	}
	return b
}

// FuzzBuild: Build never panics on an adversarial node/edge list, and a
// graph it accepts is one the rest of the system can rely on — exactly one
// start node, a topological order that covers every node with every edge
// pointing forward, probabilities inside [0, 1], in/out adjacency that
// agrees — and it compiles into the executor's node table, runs an
// invocation in each orchestration mode and drains.
func FuzzBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := graphFromBytes(data).Build()
		if err != nil {
			return
		}
		order := d.Nodes()
		if len(order) != d.Len() || len(order) == 0 {
			t.Fatalf("topological order has %d of %d nodes", len(order), d.Len())
		}
		pos := map[dag.NodeID]int{}
		for i, id := range order {
			if _, dup := pos[id]; dup {
				t.Fatalf("node %q twice in the topological order", id)
			}
			pos[id] = i
		}
		if order[0] != d.Start() {
			t.Fatalf("start %q does not lead the order %v", d.Start(), order)
		}
		inEdges := 0
		for _, id := range order {
			if len(d.In(id)) == 0 && id != d.Start() {
				t.Fatalf("second start node %q", id)
			}
			inEdges += len(d.In(id))
			if d.IsSync(id) != (len(d.In(id)) > 1) {
				t.Fatalf("IsSync(%q) disagrees with its %d in-edges", id, len(d.In(id)))
			}
			for _, e := range d.Out(id) {
				if e.From != id || pos[e.From] >= pos[e.To] {
					t.Fatalf("edge %s->%s does not point forward in %v", e.From, e.To, order)
				}
				if !(e.Probability >= 0 && e.Probability <= 1) {
					t.Fatalf("edge %s->%s has probability %v", e.From, e.To, e.Probability)
				}
			}
		}
		if inEdges != len(d.Edges()) {
			t.Fatalf("%d in-edges, %d edges", inEdges, len(d.Edges()))
		}

		wl := &workloads.Workload{Name: d.Name(), DAG: d, Nodes: map[dag.NodeID]workloads.NodeProfile{}, ImageBytes: 1e6}
		for _, id := range order {
			wl.Nodes[id] = workloads.NodeProfile{CPUUtil: 0.5, MemoryMB: 512}
		}
		for _, mode := range []executor.Mode{executor.ModeCaribou, executor.ModePlainSNS, executor.ModeStepFunctions} {
			sched := simclock.New(time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC))
			cat := region.NorthAmerica()
			p, err := platform.New(platform.Options{Sched: sched, Catalogue: cat, Net: netmodel.New(cat), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			done := 0
			e, err := executor.New(executor.Options{
				Platform: p, Workload: wl, Home: region.USEast1, Mode: mode, Seed: 1,
				OnComplete: func(*platform.InvocationRecord) { done++ },
			})
			if err != nil {
				t.Fatalf("%s: an accepted graph does not compile: %v", mode, err)
			}
			if err := e.DeployHome(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := e.Invoke(workloads.Small); err != nil {
					t.Fatal(err)
				}
			}
			sched.Run()
			if done != 3 || e.Live() != 0 || p.KV().Len() != 0 {
				t.Fatalf("%s: %d of 3 invocations completed, %d live, %d KV entries left", mode, done, e.Live(), p.KV().Len())
			}
		}
	})
}
