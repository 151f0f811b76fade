package platform

import (
	"fmt"
	"sort"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/region"
)

// ExecutionEvent records one function execution: the raw facts needed to
// account cost (GB-seconds, invocation fee) and carbon (duration, memory,
// utilization, region, wall-clock position against the grid trace).
type ExecutionEvent struct {
	Node   dag.NodeID
	Region region.ID
	Start  time.Time
	// DurationSec is the billed execution duration; InitSec is the
	// cold-start environment initialization time, which extends service
	// time but (as on AWS Lambda managed runtimes) is not billed. The
	// Metric Manager learns latency from DurationSec+InitSec and prices
	// carbon/cost from DurationSec.
	DurationSec float64
	InitSec     float64
	MemoryMB    float64
	CPUUtil     float64
	ColdStart   bool
}

// TransferKind classifies a data movement for accounting and analysis.
type TransferKind int

// Transfer kinds.
const (
	// TransferPayload is intermediate data piggybacked on an invocation
	// message between two stages.
	TransferPayload TransferKind = iota
	// TransferKVData is intermediate data staged through the
	// distributed key-value store for synchronization nodes.
	TransferKVData
	// TransferEntry is the initial request payload from the traffic
	// source to the entry stage.
	TransferEntry
	// TransferOutput is a terminal stage writing results back to the
	// workflow's fixed external storage (§9.1 keeps storage at home).
	TransferOutput
	// TransferImage is a container-image replication performed by the
	// migrator.
	TransferImage
	// TransferControl is framework control traffic (DP fetches, sync
	// annotations, metadata).
	TransferControl
)

func (k TransferKind) String() string {
	switch k {
	case TransferPayload:
		return "payload"
	case TransferKVData:
		return "kvdata"
	case TransferEntry:
		return "entry"
	case TransferOutput:
		return "output"
	case TransferImage:
		return "image"
	case TransferControl:
		return "control"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// TransferEvent records one data movement between regions. FromNode and
// ToNode label the DAG edge that produced the movement (empty for entry,
// output, image, and control transfers), letting the Metric Manager learn
// per-edge payload size distributions.
type TransferEvent struct {
	Kind     TransferKind
	From, To region.ID
	FromNode dag.NodeID
	ToNode   dag.NodeID
	Bytes    float64
	At       time.Time
}

// ServiceCounts tallies billable service requests per region.
type ServiceCounts struct {
	SNSPublishes map[region.ID]int
	KVReads      map[region.ID]int
	KVWrites     map[region.ID]int
}

func newServiceCounts() ServiceCounts {
	return ServiceCounts{
		SNSPublishes: make(map[region.ID]int),
		KVReads:      make(map[region.ID]int),
		KVWrites:     make(map[region.ID]int),
	}
}

// InvocationRecord aggregates everything one workflow invocation did. The
// Metric Manager learns from these; the evaluation harness accounts cost
// and carbon from them under any transmission model without re-running the
// simulation.
type InvocationRecord struct {
	Workflow   string
	ID         uint64
	InputClass string
	Start      time.Time // first function begins processing
	End        time.Time // last function finishes
	Executions []ExecutionEvent
	Transfers  []TransferEvent
	Services   ServiceCounts
	// Benchmarked marks the 10 % of traffic pinned to the home region
	// for performance benchmarking (§6.2).
	Benchmarked bool
	Succeeded   bool
}

// NewInvocationRecord returns an empty record.
func NewInvocationRecord(workflow string, id uint64, class string) *InvocationRecord {
	return &InvocationRecord{
		Workflow:   workflow,
		ID:         id,
		InputClass: class,
		Services:   newServiceCounts(),
	}
}

// ServiceTime is the end-to-end service time (§9.1: first receipt by the
// first function to the end of the last function).
func (r *InvocationRecord) ServiceTime() time.Duration { return r.End.Sub(r.Start) }

// CarbonGrams accounts operational carbon under the given transmission
// model: execution carbon per Eq 7.1-7.4 at the grid intensity in effect
// when each execution ran, and transmission carbon per Eq 7.5 for every
// transfer. It returns execution and transmission components separately
// (Fig 8 plots their ratio). Callers accounting many records share one
// Accounts instead.
func (r *InvocationRecord) CarbonGrams(src carbon.Source, cat *region.Catalogue, tx carbon.TransmissionModel) (execG, txG float64, err error) {
	return NewAccounts(src, cat, nil).CarbonGrams(r, tx)
}

// RegionsUsed returns the distinct regions that executed stages.
func (r *InvocationRecord) RegionsUsed() []region.ID {
	set := map[region.ID]bool{}
	for _, e := range r.Executions {
		set[e.Region] = true
	}
	out := make([]region.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
