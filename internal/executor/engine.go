// Package executor implements Caribou's flexible cross-regional workflow
// execution (§6.2): deployment-plan routing with plan piggybacking,
// pub/sub invocation of successors, the synchronization-node protocol of
// Eq 4.1, conditional-branch skip propagation, and the 10 % home-region
// benchmarking traffic. It also implements the two baseline orchestrators
// compared in §9.6: first-party Step Functions-style orchestration and
// plain single-region SNS chaining.
package executor

import (
	"encoding/json"
	"fmt"
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
	// Plans supplies active deployment plans (Caribou mode only). nil
	// behaves like HomeOnly.
	Plans PlanSource
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
	label   []byte // rngFor's stream-label scratch
	done    func(*platform.InvocationRecord)

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
	class   workloads.InputClass
	plan    dag.Plan // effective routing plan, fixed at entry
	pending int      // node executions scheduled or running
	maxEnd  time.Time
	started bool
	// stagedBytes accumulates intermediate data staged in the KV store
	// per sync node, loaded by the sync node when it fires.
	stagedBytes map[dag.NodeID]float64
	// sfState holds Step Functions-mode in-memory join state.
	sfState map[dag.NodeID]*sfJoin
}

type sfJoin struct {
	arrived int
	skipped int
	bytes   float64
}

// envelope is the message payload carried on pub/sub invocations.
type envelope struct {
	Inv  uint64     `json:"inv"`
	Node dag.NodeID `json:"node"`
}

// New validates options and returns an engine. The caller must deploy
// functions (at minimum the home-region deployment) before invoking.
func New(opts Options) (*Engine, error) {
	if opts.Platform == nil || opts.Workload == nil {
		return nil, fmt.Errorf("executor: Platform and Workload are required")
	}
	if _, ok := opts.Platform.Catalogue().Get(opts.Home); !ok {
		return nil, fmt.Errorf("executor: unknown home region %q", opts.Home)
	}
	if opts.Plans == nil {
		opts.Plans = HomeOnly{}
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
		plans:   opts.Plans,
		benchFr: opts.BenchFraction,
		seed:    opts.Seed,
		rng:     simclock.DeriveRand(opts.Seed, "executor/"+opts.Workload.Name),
		done:    opts.OnComplete,
		live:    make(map[uint64]*invocation),
		tel:     newExecutorTelemetry(),
	}
	e.p.Broker().OnDrop(e.onDrop)
	return e, nil
}

// Workload returns the engine's workload.
func (e *Engine) Workload() *workloads.Workload { return e.wl }

// Home returns the home region.
func (e *Engine) Home() region.ID { return e.home }

// EnsureDeployment replicates the workflow image to r if needed and
// deploys the function for node there, wiring the engine's handler. It
// returns the bytes moved by the image copy (zero when already present)
// so the deployer can account migration overhead.
func (e *Engine) EnsureDeployment(node dag.NodeID, r region.ID) (float64, error) {
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
	if e.p.IsDeployed(ref) {
		return moved, nil
	}
	err := e.p.DeployFunction(ref, func(msg pubsub.Message) error {
		return e.onArrive(ref, msg)
	})
	return moved, err
}

// RemoveDeployment tears down the function for node in r.
func (e *Engine) RemoveDeployment(node dag.NodeID, r region.ID) {
	e.p.RemoveFunction(platform.FunctionRef{Workflow: e.wl.Name, Node: node, Region: r})
}

// DeployHome deploys every stage to the home region (initial deployment,
// §6.1).
func (e *Engine) DeployHome() error {
	for _, n := range e.wl.DAG.Nodes() {
		if _, err := e.EnsureDeployment(n, e.home); err != nil {
			return err
		}
	}
	return nil
}

// Live reports the number of in-flight invocations.
func (e *Engine) Live() int { return len(e.live) }

func (e *Engine) onDrop(msg pubsub.Message) {
	if !strings.HasPrefix(msg.Topic, e.wl.Name+"/") {
		return // another workflow's message
	}
	var env envelope
	if json.Unmarshal(msg.Data, &env) != nil {
		return
	}
	inv, ok := e.live[env.Inv]
	if !ok {
		return
	}
	// A lost invocation message means the stage never ran; the
	// invocation completes unsuccessfully once nothing else is pending.
	e.tel.dropped.Inc()
	inv.rec.Succeeded = false
	inv.pending--
	e.maybeFinish(env.Inv, inv)
}

func (e *Engine) maybeFinish(id uint64, inv *invocation) {
	if inv.pending > 0 {
		return
	}
	inv.rec.End = inv.maxEnd
	delete(e.live, id)
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

// SetBenchFraction adjusts the share of traffic pinned home for
// benchmarking.
func (e *Engine) SetBenchFraction(f float64) {
	if f >= 0 && f < 1 {
		e.benchFr = f
	}
}
