// Package metrics implements the Metric Manager (§7): it aggregates
// invocation logs under a 30-day / 5,000-invocation sliding window with
// selective forgetting, learns per-node execution-time and per-edge
// payload-size distributions, tracks conditional-edge frequencies, gathers
// external data (grid carbon intensity, prices, network latency), and
// refits carbon forecasts daily. It exposes everything the Monte Carlo
// estimator and the Deployment Solver consume.
package metrics

import (
	"fmt"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/forecast"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/stats"
)

// Window limits of §7.2.
const (
	MaxRecords = 5000
	MaxAge     = 30 * 24 * time.Hour
)

// Manager aggregates metrics for one workflow.
type Manager struct {
	d    *dag.DAG
	home region.ID
	cat  *region.Catalogue
	net  *netmodel.Model
	src  carbon.Source
	book *pricing.Book

	records []*platform.InvocationRecord // window, oldest first

	exec      map[execKey]*stats.Distribution // duration seconds
	util      map[dag.NodeID]*welford
	edgeBytes map[edgeKey]*stats.Distribution
	edgeSeen  map[edgeKey]*edgeFreq
	entry     *stats.Distribution
	output    map[dag.NodeID]*stats.Distribution
	memory    map[dag.NodeID]float64

	forecasters map[string]*forecast.Model // grid zone -> model
	forecastAt  time.Time                  // trained-through time
}

type execKey struct {
	Node   dag.NodeID
	Region region.ID
}

type edgeKey struct{ From, To dag.NodeID }

type edgeFreq struct{ taken, seen int }

type welford struct {
	n    int
	mean float64
}

func (w *welford) add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// New returns a Metric Manager for the workflow DAG with the given
// external data sources.
func New(d *dag.DAG, home region.ID, cat *region.Catalogue, net *netmodel.Model, src carbon.Source, book *pricing.Book) *Manager {
	return &Manager{
		d: d, home: home, cat: cat, net: net, src: src, book: book,
		exec:        make(map[execKey]*stats.Distribution),
		util:        make(map[dag.NodeID]*welford),
		edgeBytes:   make(map[edgeKey]*stats.Distribution),
		edgeSeen:    make(map[edgeKey]*edgeFreq),
		entry:       stats.NewDistribution(0),
		output:      make(map[dag.NodeID]*stats.Distribution),
		memory:      make(map[dag.NodeID]float64),
		forecasters: make(map[string]*forecast.Model),
	}
}

// Ingest absorbs one finished invocation record into the window and the
// learned distributions, then enforces the window limits.
func (m *Manager) Ingest(rec *platform.InvocationRecord) {
	if rec == nil || rec.Workflow != m.d.Name() {
		return
	}
	m.records = append(m.records, rec)

	executed := map[dag.NodeID]bool{}
	for _, e := range rec.Executions {
		k := execKey{e.Node, e.Region}
		dist, ok := m.exec[k]
		if !ok {
			dist = stats.NewDistribution(0)
			m.exec[k] = dist
		}
		// Latency learning includes cold-start initialization so the
		// estimator's tail predictions are realistic; cost and carbon
		// accounting use the billed duration only.
		dist.Add(e.DurationSec + e.InitSec)
		u, ok := m.util[e.Node]
		if !ok {
			u = &welford{}
			m.util[e.Node] = u
		}
		u.add(e.CPUUtil)
		m.memory[e.Node] = e.MemoryMB
		executed[e.Node] = true
	}

	for _, t := range rec.Transfers {
		switch t.Kind {
		case platform.TransferPayload, platform.TransferKVData:
			if t.FromNode != "" && t.ToNode != "" {
				k := edgeKey{t.FromNode, t.ToNode}
				dist, ok := m.edgeBytes[k]
				if !ok {
					dist = stats.NewDistribution(0)
					m.edgeBytes[k] = dist
				}
				dist.Add(t.Bytes)
			}
		case platform.TransferEntry:
			m.entry.Add(t.Bytes)
		case platform.TransferOutput:
			if t.FromNode != "" {
				dist, ok := m.output[t.FromNode]
				if !ok {
					dist = stats.NewDistribution(0)
					m.output[t.FromNode] = dist
				}
				dist.Add(t.Bytes)
			}
		}
	}

	// Conditional edge frequencies: an edge counts as seen when its
	// source node executed, taken when its target also executed (for
	// conditional edges this captures the trigger outcome).
	for _, e := range m.d.Edges() {
		if !executed[e.From] {
			continue
		}
		f, ok := m.edgeSeen[edgeKey{e.From, e.To}]
		if !ok {
			f = &edgeFreq{}
			m.edgeSeen[edgeKey{e.From, e.To}] = f
		}
		f.seen++
		if executed[e.To] {
			f.taken++
		}
	}

	m.forget(rec.End)
}

// forget enforces the sliding window: records older than 30 days always
// drop; beyond 5,000 records the oldest drop first, except records that
// still carry DAG information (a node-region execution pair) no newer
// record has — those are retained, the selective forgetting of §7.2.
func (m *Manager) forget(now time.Time) {
	cutoff := now.Add(-MaxAge)
	kept := m.records[:0]
	for _, r := range m.records {
		if r.End.After(cutoff) {
			kept = append(kept, r)
		}
	}
	m.records = kept
	if len(m.records) <= MaxRecords {
		return
	}
	// Count how many records carry each node-region pair.
	coverage := map[execKey]int{}
	for _, r := range m.records {
		for _, e := range r.Executions {
			coverage[execKey{e.Node, e.Region}]++
		}
	}
	excess := len(m.records) - MaxRecords
	kept = m.records[:0]
	for _, r := range m.records {
		if excess > 0 && !uniqueInfo(r, coverage) {
			for _, e := range r.Executions {
				coverage[execKey{e.Node, e.Region}]--
			}
			excess--
			continue
		}
		kept = append(kept, r)
	}
	m.records = kept
}

func uniqueInfo(r *platform.InvocationRecord, coverage map[execKey]int) bool {
	for _, e := range r.Executions {
		if coverage[execKey{e.Node, e.Region}] <= 1 {
			return true
		}
	}
	return false
}

// InvocationsSince counts retained invocations that ended after t.
func (m *Manager) InvocationsSince(t time.Time) int {
	n := 0
	for _, r := range m.records {
		if r.End.After(t) {
			n++
		}
	}
	return n
}

// MeanRuntimeSince returns the mean total execution seconds (summed over
// stages) of invocations ending after t; used by the token accrual of
// §5.2 ("functions with higher invocation counts and longer runtimes
// accumulate more tokens").
func (m *Manager) MeanRuntimeSince(t time.Time) float64 {
	var sum float64
	n := 0
	for _, r := range m.records {
		if !r.End.After(t) {
			continue
		}
		for _, e := range r.Executions {
			sum += e.DurationSec
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// zoneOf resolves a region's grid zone.
func (m *Manager) zoneOf(r region.ID) (string, error) {
	reg, ok := m.cat.Get(r)
	if !ok {
		return "", fmt.Errorf("metrics: unknown region %q", r)
	}
	return reg.GridZone, nil
}
