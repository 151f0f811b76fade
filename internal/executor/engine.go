// Package executor implements Caribou's flexible cross-regional workflow
// execution (§6.2): deployment-plan routing with plan piggybacking,
// pub/sub invocation of successors, the synchronization-node protocol of
// Eq 4.1, conditional-branch skip propagation, and the 10 % home-region
// benchmarking traffic. It also implements the two baseline orchestrators
// compared in §9.6: first-party Step Functions-style orchestration and
// plain single-region SNS chaining.
package executor

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"time"

	"caribou/internal/dag"
	"caribou/internal/platform"
	"caribou/internal/pubsub"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// Mode selects the orchestration strategy.
type Mode int

// Orchestration modes.
const (
	// ModeCaribou is the full framework: DP routing, sync-node KV
	// protocol, benchmarking traffic.
	ModeCaribou Mode = iota
	// ModePlainSNS chains functions through SNS in the home region with
	// KV-based synchronization but no deployment-plan machinery.
	ModePlainSNS
	// ModeStepFunctions models the provider's first-party orchestrator:
	// a central state machine in the home region with fast transitions
	// and native synchronization.
	ModeStepFunctions
)

func (m Mode) String() string {
	switch m {
	case ModeCaribou:
		return "caribou"
	case ModePlainSNS:
		return "sns"
	case ModeStepFunctions:
		return "stepfunctions"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// PlanSource supplies the deployment plan in effect at a point in time.
// Returning nil means "no active plan": traffic stays at home, the
// framework's fallback (§5.2 plan expiry, §6.1 failed rollouts).
type PlanSource interface {
	ActivePlan(now time.Time) dag.Plan
}

// StaticPlans is a PlanSource serving a fixed 24-hour plan set.
type StaticPlans struct{ Hourly dag.HourlyPlans }

// ActivePlan returns the plan for the UTC hour of now.
func (s StaticPlans) ActivePlan(now time.Time) dag.Plan { return s.Hourly.At(now.UTC().Hour()) }

// HomeOnly is a PlanSource that always keeps the workflow at home.
type HomeOnly struct{}

// ActivePlan returns nil, meaning the home fallback plan.
func (HomeOnly) ActivePlan(time.Time) dag.Plan { return nil }

// publish-API call latency charged per successor invocation issued by the
// wrapper (the SNS Publish call itself, distinct from delivery latency).
const publishCallLatency = 10 * time.Millisecond

// controlMessageBytes approximates the size of an invocation envelope
// (piggybacked deployment plan, invocation counters).
const controlMessageBytes = 2e3

// Options configures an Engine.
type Options struct {
	Platform *platform.Platform
	Workload *workloads.Workload
	Home     region.ID
	Mode     Mode
	// BenchFraction is the share of traffic pinned to the home region
	// for benchmarking; defaults to 0.10 in Caribou mode (§6.2).
	BenchFraction float64
	Seed          int64
	// OnComplete receives every finished invocation record.
	OnComplete func(*platform.InvocationRecord)
}

// Engine executes one workflow on the simulated platform.
type Engine struct {
	p       *platform.Platform
	wl      *workloads.Workload
	home    region.ID
	mode    Mode
	plans   PlanSource
	benchFr float64
	seed    int64
	rng     *simclock.Rand
	done    func(*platform.InvocationRecord)

	// The workflow resolved to dense indices, once (compile).
	nodes        []node
	pos          map[dag.NodeID]int
	syncNodes    []int // positions of the synchronization nodes
	classes      []workloads.InputClass
	entry        []float64 // request payload bytes, per class
	maxTransfers int       // per invocation absent duplicates: a record's capacity
	scratch      []byte    // stream labels and annotation keys are built here

	nextID uint64
	live   map[uint64]*invocation

	tel executorTelemetry
}

// executorTelemetry holds the engine's instrument handles, captured at
// construction; all fields are nil-safe no-ops when telemetry is off.
type executorTelemetry struct {
	invocations *telemetry.Counter
	completed   *telemetry.Counter
	failed      *telemetry.Counter
	dropped     *telemetry.Counter
}

func newExecutorTelemetry() executorTelemetry {
	rec := telemetry.Default()
	return executorTelemetry{
		invocations: rec.Counter("executor.invocations"),
		completed:   rec.Counter("executor.completed"),
		failed:      rec.Counter("executor.failed"),
		dropped:     rec.Counter("executor.dropped_messages"),
	}
}

// invocation tracks one in-flight workflow execution.
type invocation struct {
	rec     *platform.InvocationRecord
	class   int      // column of the per-class tables
	plan    dag.Plan // effective routing plan, fixed at entry
	pending int      // node executions scheduled or running
	maxEnd  time.Time
	started bool
	joins   []join // sync-node state by node position; nil without sync nodes
}

type join struct {
	staged           float64 // bytes staged in the KV store, loaded when the node fires
	arrived, skipped int     // Step Functions mode: the in-memory join
}

// The pub/sub payload: invocation id and target stage position,
// little-endian (the piggybacked plan is modeled by controlMessageBytes).
const envelopeLen = 8 + 4

func sealEnvelope(inv uint64, pos int) (b [envelopeLen]byte) {
	binary.LittleEndian.PutUint64(b[:8], inv)
	binary.LittleEndian.PutUint32(b[8:], uint32(pos))
	return b
}

// openEnvelope refuses anything but exactly one envelope.
func openEnvelope(data []byte) (inv uint64, pos int, ok bool) {
	if len(data) != envelopeLen {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(data[:8]), int(binary.LittleEndian.Uint32(data[8:])), true
}

// New validates options, compiles the node table and returns an engine.
// The caller must deploy functions (at minimum the home-region deployment)
// before invoking.
func New(opts Options) (*Engine, error) {
	if opts.Platform == nil || opts.Workload == nil {
		return nil, fmt.Errorf("executor: Platform and Workload are required")
	}
	if _, ok := opts.Platform.Catalogue().Get(opts.Home); !ok {
		return nil, fmt.Errorf("executor: unknown home region %q", opts.Home)
	}
	if opts.BenchFraction == 0 && opts.Mode == ModeCaribou {
		opts.BenchFraction = 0.10
	}
	if opts.BenchFraction < 0 {
		// Negative explicitly disables benchmarking traffic (the
		// zero value means "default").
		opts.BenchFraction = 0
	}
	if opts.BenchFraction >= 1 {
		return nil, fmt.Errorf("executor: benchmark fraction %v out of [0, 1)", opts.BenchFraction)
	}
	e := &Engine{
		p:       opts.Platform,
		wl:      opts.Workload,
		home:    opts.Home,
		mode:    opts.Mode,
		plans:   HomeOnly{},
		benchFr: opts.BenchFraction,
		seed:    opts.Seed,
		rng:     simclock.DeriveRand(opts.Seed, "executor/"+opts.Workload.Name),
		done:    opts.OnComplete,
		live:    make(map[uint64]*invocation),
		tel:     newExecutorTelemetry(),
	}
	if err := e.compile(); err != nil {
		return nil, err
	}
	e.p.Broker().OnDrop(e.onDrop)
	return e, nil
}

// Workload returns the engine's workload.
func (e *Engine) Workload() *workloads.Workload { return e.wl }

// Home returns the home region.
func (e *Engine) Home() region.ID { return e.home }

// EnsureDeployment replicates the workflow image to r if needed and
// deploys the function for node there, wiring the engine's handler and
// keeping the deployment's handle. It returns the bytes moved by the
// image copy (zero when already present) so the deployer can account
// migration overhead.
func (e *Engine) EnsureDeployment(node dag.NodeID, r region.ID) (float64, error) {
	pos, ok := e.pos[node]
	if !ok {
		return 0, fmt.Errorf("executor: workflow %s has no stage %q", e.wl.Name, node)
	}
	if !e.p.HasImage(e.wl.Name, e.home) {
		if err := e.p.PushImage(e.wl.Name, e.wl.ImageBytes, e.home); err != nil {
			return 0, err
		}
	}
	var moved float64
	if !e.p.HasImage(e.wl.Name, r) {
		_, bytes, err := e.p.CopyImage(e.wl.Name, e.home, r)
		if err != nil {
			return 0, err
		}
		moved = bytes
	}
	if err := e.p.EnsureRole(e.wl.Name, r); err != nil {
		return 0, err
	}
	ref := platform.FunctionRef{Workflow: e.wl.Name, Node: node, Region: r}
	if !e.p.IsDeployed(ref) {
		handler := func(msg pubsub.Message) error { return e.onArrive(pos, r, msg) }
		if err := e.p.DeployFunction(ref, handler); err != nil {
			return moved, err
		}
	}
	e.nodes[pos].deployed[r] = e.p.Deployment(ref)
	return moved, nil
}

// DeployHome deploys every stage to the home region (initial deployment,
// §6.1).
func (e *Engine) DeployHome() error {
	for i := range e.nodes {
		if _, err := e.EnsureDeployment(e.nodes[i].id, e.home); err != nil {
			return err
		}
	}
	return nil
}

// Live reports the number of in-flight invocations.
//
//caribou:allow unreached leak oracle of FuzzBuild and the executor drain tests: a run that finishes holds no invocation
func (e *Engine) Live() int { return len(e.live) }

func (e *Engine) onDrop(msg pubsub.Message) {
	id, pos, ok := openEnvelope(msg.Data)
	if !ok || pos >= len(e.nodes) || !strings.HasPrefix(msg.Topic, e.wl.Name+"/"+string(e.nodes[pos].id)+"/") {
		return // another workflow's message, or not an envelope for the topic's stage
	}
	inv, ok := e.live[id]
	if !ok {
		return
	}
	// A lost invocation message means the stage never ran; the
	// invocation completes unsuccessfully once nothing else is pending.
	e.tel.dropped.Inc()
	inv.rec.Succeeded = false
	inv.pending--
	e.maybeFinish(id, inv)
}

func (e *Engine) maybeFinish(id uint64, inv *invocation) {
	if inv.pending > 0 {
		return
	}
	inv.rec.End = inv.maxEnd
	delete(e.live, id)
	if e.mode != ModeStepFunctions {
		// A late duplicate is acknowledged before it could re-create these.
		for _, pos := range e.syncNodes {
			e.p.KV().Delete(e.annotationKey(id, pos))
		}
	}
	e.tel.completed.Inc()
	if !inv.rec.Succeeded {
		e.tel.failed.Inc()
	}
	if e.done != nil {
		e.done(inv.rec)
	}
}

// SetPlans replaces the engine's plan source; nil restores home-only
// routing. Used when switching between static experiment plans and the
// adaptive Deployment Manager.
func (e *Engine) SetPlans(ps PlanSource) {
	if ps == nil {
		ps = HomeOnly{}
	}
	e.plans = ps
}

// The node table: the workflow compiled once into a slice indexed by
// topological position, so the per-stage path reads successors, profiles
// and payload sizes by index instead of copying edge lists out of the DAG
// and hashing into the workload's maps on every event. Per-class columns
// (mu, output, edge.bytes, Engine.entry) are indexed like Engine.classes.
type node struct {
	id     dag.NodeID
	out    []edge
	inDeg  int // more than one makes a synchronization node
	prof   workloads.NodeProfile
	mu     []float64 // execution time is lognormal(mu[class], sigma) × region perf factor
	sigma  float64
	output []float64 // a terminal's result written back home; 0 for none
	// deployed is the stage's row of the handle table, kept by
	// EnsureDeployment.
	deployed map[region.ID]*platform.Deployment
}

type edge struct {
	dag.Edge
	toPos  int       // successor's position
	slot   int       // position among the successor's in-edges
	toSync bool      // the successor is a synchronization node
	bytes  []float64 // intermediate data carried
}

// compile builds the node table.
func (e *Engine) compile() error {
	d := e.wl.DAG
	order := d.Nodes() // order[0] is the start node
	e.pos = make(map[dag.NodeID]int, len(order))
	for i, id := range order {
		e.pos[id] = i
	}
	e.nodes = make([]node, len(order))
	e.maxTransfers = 1 // the entry request
	for i, id := range order {
		prof, ok := e.wl.Nodes[id]
		if !ok {
			return fmt.Errorf("executor: workload %s has no profile for stage %q", e.wl.Name, id)
		}
		n := &e.nodes[i]
		*n = node{id: id, inDeg: len(d.In(id)), prof: prof, deployed: map[region.ID]*platform.Deployment{}}
		if n.inDeg > 1 {
			e.syncNodes = append(e.syncNodes, i)
			e.maxTransfers += 2 // the control message and the staged-data load
		}
		for _, de := range d.Out(id) {
			ed := edge{Edge: de, toPos: e.pos[de.To], toSync: d.IsSync(de.To)}
			for k, in := range d.In(de.To) {
				if in.From == id {
					ed.slot = k
				}
			}
			n.out = append(n.out, ed)
		}
		e.maxTransfers += max(len(n.out), 1) // a payload per edge, or the terminal's output
	}
	return nil
}

// classIndex returns class's column in the per-class tables, adding it on
// first use with the lookups the stage path used to make per event (an
// undefined size reads as zero, an undefined duration as the default).
func (e *Engine) classIndex(class workloads.InputClass) int {
	if i := slices.Index(e.classes, class); i >= 0 {
		return i
	}
	e.classes = append(e.classes, class)
	e.entry = append(e.entry, e.wl.EntryBytes[class])
	for i := range e.nodes {
		n := &e.nodes[i]
		mu, sigma := e.wl.DurationParams(n.id, class)
		n.mu, n.sigma = append(n.mu, mu), sigma
		n.output = append(n.output, e.wl.OutputBytes[n.id][class])
		for j := range n.out {
			ed := &n.out[j]
			ed.bytes = append(ed.bytes, e.wl.Bytes(ed.From, ed.To, class))
		}
	}
	return len(e.classes) - 1
}
