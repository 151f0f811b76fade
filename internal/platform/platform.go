// Package platform simulates the multi-region serverless cloud Caribou
// deploys onto (AWS in the paper): regional function deployments invoked
// through pub/sub topics, cold starts, a container registry with
// cross-region image copies, a control-plane key-value store, and raw
// event logs (executions and transfers) from which cost and carbon are
// accounted after the fact.
//
// The platform is intentionally mechanism-only: it knows nothing about
// deployment plans or carbon policy. The executor and deployer drive it.
package platform

import (
	"fmt"
	"time"

	"caribou/internal/kvstore"
	"caribou/internal/netmodel"
	"caribou/internal/pubsub"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/telemetry"

	"caribou/internal/dag"
)

// FunctionRef identifies one deployed function instance.
type FunctionRef struct {
	Workflow string
	Node     dag.NodeID
	Region   region.ID
}

// Topic returns the pub/sub topic name of the deployment, one topic per
// function per region as in §6.1 (a Deployment keeps its own copy).
func (f FunctionRef) Topic() string {
	return f.Workflow + "/" + string(f.Node) + "/" + string(f.Region)
}

func (f FunctionRef) String() string { return f.Topic() }

// Timing constants of the simulated provider, calibrated so the §9.6
// overhead comparison lands where the paper's measurements do: Step
// Functions transitions are markedly faster than SNS-triggered Lambda
// invocations, and KV accesses cost a few milliseconds plus network time.
const (
	// SNSPublishOverhead is the fixed service-side latency from publish
	// to subscriber invocation, excluding network propagation.
	SNSPublishOverhead = 120 * time.Millisecond
	// StepFunctionsTransition is the state-transition latency of the
	// provider's first-party orchestrator.
	StepFunctionsTransition = 25 * time.Millisecond
	// KVAccessOverhead is the service-side latency of one key-value
	// store request, excluding network propagation.
	KVAccessOverhead = 3 * time.Millisecond
	// coldStartBase and coldStartPerGB model container initialization.
	coldStartBase  = 250 * time.Millisecond
	coldStartPerGB = 600 * time.Millisecond
	// coldIdleThreshold is the idle time after which an execution
	// environment is reclaimed. Providers keep environments warm for
	// tens of minutes to hours; the simulation errs long so cold
	// starts cluster at deployment switches rather than dominating
	// steady-state traffic.
	coldIdleThreshold = 60 * time.Minute
)

// Options configures a Platform.
type Options struct {
	Sched     *simclock.Scheduler
	Catalogue *region.Catalogue
	Net       *netmodel.Model
	Seed      int64
	// Pubsub configures the broker's duplicate-delivery fault injection.
	Pubsub pubsub.Config
	// RegionConcurrency caps concurrent executions per region
	// (DefaultRegionConcurrency when zero; negative disables the cap).
	RegionConcurrency int
}

// Platform is the simulated cloud.
type Platform struct {
	sched  *simclock.Scheduler
	cat    *region.Catalogue
	net    *netmodel.Model
	broker *pubsub.Broker
	kv     *kvstore.Store
	rng    *simclock.Rand

	registry    map[string]map[region.ID]float64 // workflow -> region -> image bytes
	deployments map[FunctionRef]*Deployment
	roles       map[string]map[region.ID]bool // workflow -> region -> IAM role exists

	regionConcurrency int
	limiters          map[region.ID]*regionLimiter

	tel platformTelemetry
}

// platformTelemetry holds the platform's instrument handles, captured
// once at construction. Every field is nil-safe: with telemetry disabled
// each observation is a single nil check.
type platformTelemetry struct {
	rec           *telemetry.Recorder
	invocations   *telemetry.Counter
	coldStarts    *telemetry.Counter
	transfers     *telemetry.Counter
	transferBytes *telemetry.Counter
	publishes     *telemetry.Counter
	imageCopies   *telemetry.Counter
	limiterQueued *telemetry.Counter
	limiterPeak   *telemetry.Gauge
}

func newPlatformTelemetry() platformTelemetry {
	rec := telemetry.Default()
	return platformTelemetry{
		rec:           rec,
		invocations:   rec.Counter("platform.invocations"),
		coldStarts:    rec.Counter("platform.cold_starts"),
		transfers:     rec.Counter("platform.transfers"),
		transferBytes: rec.Counter("platform.transfer_bytes"),
		publishes:     rec.Counter("platform.publishes"),
		imageCopies:   rec.Counter("platform.image_copies"),
		limiterQueued: rec.Counter("platform.limiter.queued"),
		limiterPeak:   rec.Gauge("platform.limiter.peak"),
	}
}

// Deployment is the handle of one deployed function: resolved once
// (Platform.Deployment), it publishes, charges cold starts and reports
// liveness without rebuilding the topic name. RemoveFunction retires it.
type Deployment struct {
	p        *Platform
	ref      FunctionRef
	topic    string
	live     bool
	lastUsed time.Time
	everUsed bool
}

// New returns an empty platform.
func New(opts Options) (*Platform, error) {
	if opts.Sched == nil || opts.Catalogue == nil || opts.Net == nil {
		return nil, fmt.Errorf("platform: Sched, Catalogue and Net are required")
	}
	conc := opts.RegionConcurrency
	if conc == 0 {
		conc = DefaultRegionConcurrency
	}
	if conc < 0 {
		conc = 0 // unlimited
	}
	p := &Platform{
		sched:             opts.Sched,
		cat:               opts.Catalogue,
		net:               opts.Net,
		kv:                kvstore.New(),
		rng:               simclock.DeriveRand(opts.Seed, "platform"),
		registry:          make(map[string]map[region.ID]float64),
		deployments:       make(map[FunctionRef]*Deployment),
		roles:             make(map[string]map[region.ID]bool),
		regionConcurrency: conc,
		limiters:          make(map[region.ID]*regionLimiter),
		tel:               newPlatformTelemetry(),
	}
	p.broker = pubsub.NewBroker(opts.Sched, opts.Pubsub, simclock.DeriveRand(opts.Seed, "platform/broker"))
	return p, nil
}

// Scheduler exposes the virtual clock.
func (p *Platform) Scheduler() *simclock.Scheduler { return p.sched }

// Catalogue exposes the region catalogue.
func (p *Platform) Catalogue() *region.Catalogue { return p.cat }

// Net exposes the network model.
func (p *Platform) Net() *netmodel.Model { return p.net }

// Broker exposes the pub/sub substrate.
func (p *Platform) Broker() *pubsub.Broker { return p.broker }

// KV exposes the control-plane key-value store. Access latency is modeled
// by callers via KVAccessLatency, since only they know the accessor's
// region.
func (p *Platform) KV() *kvstore.Store { return p.kv }

// KVAccessLatency returns the virtual latency of one KV request issued
// from `from` against a table homed in `home`.
func (p *Platform) KVAccessLatency(from, home region.ID) time.Duration {
	rtt, err := p.net.RTT(from, home)
	if err != nil {
		rtt = time.Millisecond
	}
	return KVAccessOverhead + rtt
}

// PushImage registers the workflow's container image in a regional
// registry (step 2 of initial deployment, §6.1). Pushing is idempotent.
func (p *Platform) PushImage(workflow string, bytes float64, to region.ID) error {
	if _, ok := p.cat.Get(to); !ok {
		return fmt.Errorf("platform: push image to unknown region %q", to)
	}
	if p.registry[workflow] == nil {
		p.registry[workflow] = make(map[region.ID]float64)
	}
	p.registry[workflow][to] = bytes
	return nil
}

// HasImage reports whether the workflow's image exists in the region.
func (p *Platform) HasImage(workflow string, r region.ID) bool {
	_, ok := p.registry[workflow][r]
	return ok
}

// CopyImage replicates the image from one regional registry to another
// without rebuilding (the crane-based migration of §6.1). It returns the
// virtual duration and the bytes moved; callers log the transfer. Copying
// to a region that already has the image is free.
func (p *Platform) CopyImage(workflow string, from, to region.ID) (time.Duration, float64, error) {
	bytes, ok := p.registry[workflow][from]
	if !ok {
		return 0, 0, fmt.Errorf("platform: no image for %q in %q", workflow, from)
	}
	if p.HasImage(workflow, to) {
		return 0, 0, nil
	}
	d, err := p.net.TransferTime(from, to, bytes)
	if err != nil {
		return 0, 0, err
	}
	if err := p.PushImage(workflow, bytes, to); err != nil {
		return 0, 0, err
	}
	p.tel.imageCopies.Inc()
	p.tel.transfers.Inc()
	p.tel.transferBytes.Add(int64(bytes))
	p.tel.rec.Event("platform.image_copy", p.sched.Now(),
		telemetry.String("workflow", workflow),
		telemetry.String("from", string(from)),
		telemetry.String("to", string(to)),
		telemetry.Float("bytes", bytes))
	return d, bytes, nil
}

// EnsureRole creates the workflow's IAM role in a region (step 2 of
// initial deployment, §6.1: one role per function deployment region).
// Idempotent.
func (p *Platform) EnsureRole(workflow string, r region.ID) error {
	if _, ok := p.cat.Get(r); !ok {
		return fmt.Errorf("platform: role in unknown region %q", r)
	}
	if p.roles[workflow] == nil {
		p.roles[workflow] = make(map[region.ID]bool)
	}
	p.roles[workflow][r] = true
	return nil
}

// HasRole reports whether the workflow's IAM role exists in the region.
func (p *Platform) HasRole(workflow string, r region.ID) bool {
	return p.roles[workflow][r]
}

// DeployFunction creates the function and its messaging topic in the
// region and subscribes handler to it. It fails when the image has not
// been replicated or the IAM role has not been created in the region,
// mirroring the real dependency order (§6.1 step 2: roles and image
// before functions and topics).
func (p *Platform) DeployFunction(ref FunctionRef, handler pubsub.Handler) error {
	if _, ok := p.cat.Get(ref.Region); !ok {
		return fmt.Errorf("platform: deploy to unknown region %q", ref.Region)
	}
	if !p.HasImage(ref.Workflow, ref.Region) {
		return fmt.Errorf("platform: image for %q not in registry of %q", ref.Workflow, ref.Region)
	}
	if !p.HasRole(ref.Workflow, ref.Region) {
		return fmt.Errorf("platform: IAM role for %q missing in %q", ref.Workflow, ref.Region)
	}
	p.RemoveFunction(ref) // a re-deployment retires the old handle
	d := &Deployment{p: p, ref: ref, topic: ref.Topic(), live: true}
	p.deployments[ref] = d
	p.broker.Subscribe(d.topic, handler)
	return nil
}

// RemoveFunction deletes the deployment and its topic.
func (p *Platform) RemoveFunction(ref FunctionRef) {
	if d := p.deployments[ref]; d != nil {
		d.live = false
		delete(p.deployments, ref)
		p.broker.Unsubscribe(d.topic)
	}
}

// Deployment returns the handle of the live deployment of ref, or nil.
func (p *Platform) Deployment(ref FunctionRef) *Deployment { return p.deployments[ref] }

// IsDeployed reports whether ref exists.
func (p *Platform) IsDeployed(ref FunctionRef) bool { return p.deployments[ref].Live() }

// Live reports whether the deployment exists; nil and retired handles do not.
func (d *Deployment) Live() bool { return d != nil && d.live }

// ColdStartPenalty returns the environment-initialization delay to charge
// for an invocation of the deployment arriving now, and updates its usage
// clock. The first invocation and invocations after a long idle period pay
// the penalty, scaled by image size; a missing deployment charges nothing.
func (d *Deployment) ColdStartPenalty(imageBytes float64) time.Duration {
	if !d.Live() {
		return 0
	}
	p := d.p
	p.tel.invocations.Inc()
	now := p.sched.Now()
	cold := !d.everUsed || now.Sub(d.lastUsed) > coldIdleThreshold
	d.everUsed = true
	d.lastUsed = now
	if !cold {
		return 0
	}
	p.tel.coldStarts.Inc()
	p.tel.rec.Event("platform.cold_start", now,
		telemetry.String("workflow", d.ref.Workflow),
		telemetry.String("node", string(d.ref.Node)),
		telemetry.String("region", string(d.ref.Region)))
	penalty := coldStartBase + time.Duration(imageBytes/1e9*float64(coldStartPerGB))
	// Mild deterministic jitter.
	return time.Duration(float64(penalty) * p.rng.Uniform(0.85, 1.25))
}

// MessageLatency returns the virtual delivery latency of a pub/sub message
// of the given size from a publisher in `from` to a subscriber in `to`:
// the provider-side publish overhead plus one-way network time.
func (p *Platform) MessageLatency(from, to region.ID, bytes float64) time.Duration {
	t, err := p.net.TransferTime(from, to, bytes)
	if err != nil {
		t = time.Millisecond
	}
	jitter := p.rng.LogNormal(0, 0.08)
	return SNSPublishOverhead + time.Duration(float64(t)*jitter)
}

// Publish sends data to topic with the given pre-computed latency.
func (p *Platform) Publish(topic string, data []byte, latency time.Duration) error {
	p.tel.publishes.Inc()
	return p.broker.PublishAfter(topic, data, latency)
}

// Publish sends data to the deployment's topic; if the deployment is gone on
// arrival the message takes the broker's retry-then-drop path.
func (d *Deployment) Publish(data []byte, latency time.Duration) error {
	return d.p.Publish(d.topic, data, latency)
}

// NoteTransfer counts one logged data movement in the platform's
// telemetry instruments. The executor calls it wherever it appends a
// TransferEvent to an invocation record; ev.At already carries the
// simulated-clock stamp.
func (p *Platform) NoteTransfer(ev TransferEvent) {
	p.tel.transfers.Inc()
	p.tel.transferBytes.Add(int64(ev.Bytes))
}
