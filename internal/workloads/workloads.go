// Package workloads defines the five benchmark serverless workflows of
// Table 1 — DNA Visualization, RAG Data Ingestion, Image Processing,
// Text2Speech Censoring, and Video Analytics — as DAGs plus execution
// profiles. Real payloads (DNA files, PDFs, images, videos) are replaced
// by calibrated per-node duration/memory/IO footprints for the paper's
// small and large input sizes; the evaluation consumes execution-time and
// bytes-moved distributions, not payload content.
package workloads

import (
	"fmt"
	"math"
	"sort"

	"caribou/internal/dag"
	"caribou/internal/simclock"
)

// InputClass selects one of the two input sizes evaluated per workflow.
type InputClass string

// The two input classes of Table 1.
const (
	Small InputClass = "small"
	Large InputClass = "large"
)

// Classes returns the input classes in presentation order.
func Classes() []InputClass { return []InputClass{Small, Large} }

// NodeProfile describes how one stage behaves when executed.
type NodeProfile struct {
	// MeanDurationSec is the home-region mean execution time per input
	// class.
	MeanDurationSec map[InputClass]float64
	// DurationSigma is the lognormal sigma of execution-time jitter.
	DurationSigma float64
	// CPUUtil is the average vCPU utilization in [0, 1] (Lambda
	// Insights cpu_total_time / (t * n_vcpu)).
	CPUUtil float64
	// MemoryMB is the configured function memory.
	MemoryMB float64
}

// EdgeKey identifies a DAG edge in profile maps.
type EdgeKey struct{ From, To dag.NodeID }

// Workload couples a workflow DAG with its execution profiles.
type Workload struct {
	Name        string
	Description string
	DAG         *dag.DAG
	Nodes       map[dag.NodeID]NodeProfile
	// EdgeBytes is the intermediate-data payload carried by each edge
	// per input class.
	EdgeBytes map[EdgeKey]map[InputClass]float64
	// EntryBytes is the size of the initial request payload.
	EntryBytes map[InputClass]float64
	// OutputBytes is the result payload each terminal stage writes back
	// to the workflow's fixed external storage at the home region
	// (§9.1 pins external data and services at home).
	OutputBytes map[dag.NodeID]map[InputClass]float64
	// InputLabel gives the human-readable Table 1 input description.
	InputLabel map[InputClass]string
	// ImageBytes is the container image size, which prices the
	// migrator's cross-region registry copies.
	ImageBytes float64
}

// Profile returns the node profile for id, which must exist.
func (w *Workload) Profile(id dag.NodeID) NodeProfile {
	p, ok := w.Nodes[id]
	if !ok {
		panic(fmt.Sprintf("workloads: %s has no profile for node %q", w.Name, id))
	}
	return p
}

// Bytes returns the payload size for the edge from→to under class.
func (w *Workload) Bytes(from, to dag.NodeID, class InputClass) float64 {
	m, ok := w.EdgeBytes[EdgeKey{from, to}]
	if !ok {
		return 0
	}
	return m[class]
}

// DurationParams returns the parameters (mu, sigma) of the lognormal that
// node id's home-region execution time follows under class, with mu chosen
// so that the distribution's mean is the profile's mean duration. A caller
// that samples a node many times resolves them once.
func (w *Workload) DurationParams(id dag.NodeID, class InputClass) (mu, sigma float64) {
	p := w.Profile(id)
	mean := p.MeanDurationSec[class]
	if mean <= 0 {
		mean = 0.05
	}
	sigma = p.DurationSigma
	if sigma <= 0 {
		sigma = 0.08
	}
	// mu = ln(mean) - sigma^2/2 so E[duration] == mean.
	return math.Log(mean) - sigma*sigma/2, sigma
}

// SampleDuration draws one execution time (seconds) for node id under
// class, scaled by the region performance factor.
func (w *Workload) SampleDuration(id dag.NodeID, class InputClass, perfFactor float64, rng *simclock.Rand) float64 {
	mu, sigma := w.DurationParams(id, class)
	return rng.LogNormal(mu, sigma) * perfFactor
}

// MeanServiceTimeSec returns a rough analytic mean end-to-end service time
// for a single-region deployment: the longest path through mean node
// durations. It seeds QoS definitions before any measurement exists.
func (w *Workload) MeanServiceTimeSec(class InputClass) float64 {
	memo := map[dag.NodeID]float64{}
	var longest func(n dag.NodeID) float64
	longest = func(n dag.NodeID) float64 {
		if v, ok := memo[n]; ok {
			return v
		}
		best := 0.0
		for _, e := range w.DAG.Out(n) {
			if v := longest(e.To); v > best {
				best = v
			}
		}
		v := w.Profile(n).MeanDurationSec[class] + best
		memo[n] = v
		return v
	}
	return longest(w.DAG.Start())
}

// All returns the five benchmark workloads in Table 1 order.
func All() []*Workload {
	return []*Workload{
		DNAVisualization(),
		RAGDataIngestion(),
		ImageProcessing(),
		Text2SpeechCensoring(),
		VideoAnalytics(),
	}
}

// Extras returns workloads resolvable by name but excluded from the
// Table 1 set: synthetic stress workloads used by benches and sweep
// grids, never by the figure drivers.
func Extras() []*Workload {
	return []*Workload{HeavyTailAnalytics()}
}

// ByName returns the named workload, searching Table 1 then Extras.
func ByName(name string) (*Workload, error) {
	all := append(All(), Extras()...)
	for _, w := range all {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range all {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, names)
}

func mustBuild(b *dag.Builder) *dag.DAG {
	d, err := b.Build()
	if err != nil {
		panic(err) // static definitions, cannot fail
	}
	return d
}
