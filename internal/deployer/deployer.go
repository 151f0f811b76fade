// Package deployer implements Caribou's Deployment Utility and Deployment
// Migrator (§6.1): initial deployment of every stage to the home region,
// cross-region re-deployment by replicating container images between
// regional registries (crane-style, no rebuild), all-or-nothing activation
// of new deployment plans through the distributed KV store, fallback to
// the home deployment when any step fails, and periodic retry of
// non-activated rollouts.
package deployer

import (
	"fmt"
	"time"

	"caribou/internal/dag"
	"caribou/internal/executor"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/telemetry"
)

// storedPlans is the KV representation of an active plan set.
type storedPlans struct {
	Hourly [24]map[dag.NodeID]region.ID `json:"hourly"`
	Expiry time.Time                    `json:"expiry"`
}

// Deployer manages one workflow's deployments.
type Deployer struct {
	eng *executor.Engine
	p   *platform.Platform
	// FailDeploy, when set, injects deployment failures (tests and
	// failure-mode experiments): returning true fails that step.
	FailDeploy func(node dag.NodeID, r region.ID) bool

	key           string
	active        *storedPlans     // cache of the KV value
	pendingPlans  *dag.HourlyPlans // staged for retry after a failure
	pendingExpiry time.Time

	tel deployerTelemetry
}

// deployerTelemetry holds instrument handles captured at construction;
// nil-safe no-ops when telemetry is off. Deployment state transitions are
// rare, so each also emits a flight-recorder event stamped with simclock
// time.
type deployerTelemetry struct {
	rec      *telemetry.Recorder
	rollouts *telemetry.Counter
	failed   *telemetry.Counter
}

func newDeployerTelemetry() deployerTelemetry {
	rec := telemetry.Default()
	return deployerTelemetry{
		rec:      rec,
		rollouts: rec.Counter("deployer.rollouts"),
		failed:   rec.Counter("deployer.rollouts_failed"),
	}
}

// New returns a deployer for the engine's workflow.
func New(eng *executor.Engine, p *platform.Platform) *Deployer {
	return &Deployer{
		eng: eng,
		p:   p,
		key: "dp/" + eng.Workload().Name,
		tel: newDeployerTelemetry(),
	}
}

// InitialDeploy performs the first-time deployment of every stage to the
// home region and records the home plan as the (non-expiring) fallback.
func (d *Deployer) InitialDeploy() error {
	if err := d.eng.DeployHome(); err != nil {
		return fmt.Errorf("deployer: initial deploy: %w", err)
	}
	return nil
}

// Rollout deploys the union of regions referenced by the 24 hourly plans
// and activates them with the given expiry. If any function deployment
// fails, nothing is activated (traffic keeps flowing to the currently
// active plan or home) and the rollout is staged for retry. It returns
// the image bytes replicated across regions, the migration overhead the
// Deployment Manager charges against the carbon budget.
func (d *Deployer) Rollout(plans dag.HourlyPlans, expiry time.Time) (float64, error) {
	d.tel.rollouts.Inc()
	var moved float64
	for _, plan := range plans {
		// Sorted stage order pins which deployment fails first and keeps
		// the migrated-byte accounting independent of map iteration order.
		for _, node := range plan.SortedNodes() {
			r := plan[node]
			if d.FailDeploy != nil && d.FailDeploy(node, r) {
				d.noteRolloutFailure(node, r)
				d.pendingPlans = &plans
				d.pendingExpiry = expiry
				return moved, fmt.Errorf("deployer: deployment of %s to %s failed; keeping previous plan active", node, r)
			}
			bytes, err := d.eng.EnsureDeployment(node, r)
			if err != nil {
				d.noteRolloutFailure(node, r)
				d.pendingPlans = &plans
				d.pendingExpiry = expiry
				return moved, fmt.Errorf("deployer: %s to %s: %w", node, r, err)
			}
			moved += bytes
		}
	}
	d.activate(plans, expiry)
	d.pendingPlans = nil
	return moved, nil
}

func (d *Deployer) noteRolloutFailure(node dag.NodeID, r region.ID) {
	d.tel.failed.Inc()
	d.tel.rec.Event("deployer.rollout_failed", d.p.Scheduler().Now(),
		telemetry.String("workflow", d.eng.Workload().Name),
		telemetry.String("node", string(node)),
		telemetry.String("region", string(r)))
}

func (d *Deployer) activate(plans dag.HourlyPlans, expiry time.Time) {
	d.tel.rec.Event("deployer.activate", d.p.Scheduler().Now(),
		telemetry.String("workflow", d.eng.Workload().Name),
		telemetry.Time("expiry", expiry))
	sp := &storedPlans{Expiry: expiry}
	for h, plan := range plans {
		m := make(map[dag.NodeID]region.ID, len(plan))
		for n, r := range plan {
			m[n] = r
		}
		sp.Hourly[h] = m
	}
	if err := d.p.KV().PutJSON(d.key, sp); err != nil {
		// Marshaling static types cannot fail; treat as programming error.
		panic(err)
	}
	d.active = sp
}

// RetryPending re-attempts a staged rollout, if any (§6.1: the Migrator
// periodically retries the rollout of any non-activated DP).
func (d *Deployer) RetryPending() error {
	if d.pendingPlans == nil {
		return nil
	}
	plans, expiry := *d.pendingPlans, d.pendingExpiry
	_, err := d.Rollout(plans, expiry)
	return err
}

// HasPending reports whether a failed rollout awaits retry.
func (d *Deployer) HasPending() bool { return d.pendingPlans != nil }

// Expire deactivates the current plan set, routing all traffic home
// (§5.2: when a token check is due, the pre-determined deployment is
// expired).
func (d *Deployer) Expire() {
	d.tel.rec.Event("deployer.expire", d.p.Scheduler().Now(),
		telemetry.String("workflow", d.eng.Workload().Name))
	d.p.KV().Delete(d.key)
	d.active = nil
}

// ActivePlan implements executor.PlanSource: the hourly plan currently in
// effect, or nil (home) when none is active or the set has expired.
func (d *Deployer) ActivePlan(now time.Time) dag.Plan {
	if d.active == nil {
		var sp storedPlans
		ok, err := d.p.KV().GetJSON(d.key, &sp)
		if err != nil || !ok {
			return nil
		}
		d.active = &sp
	}
	if !d.active.Expiry.IsZero() && now.After(d.active.Expiry) {
		return nil
	}
	m := d.active.Hourly[now.UTC().Hour()]
	if m == nil {
		return nil
	}
	plan := make(dag.Plan, len(m))
	for n, r := range m {
		plan[n] = r
	}
	return plan
}

var _ executor.PlanSource = (*Deployer)(nil)
