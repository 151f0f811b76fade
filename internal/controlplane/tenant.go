// tenant.go holds the per-workflow state the control plane serves: the
// tenant's metric window, solver, event-driven token bucket, and the
// atomically published plan snapshot that GET /plan reads lock-free.
//
// Determinism boundary: everything that shapes plan *content* — synthetic
// records, token accrual, solve scheduling, the solver's RNG — derives
// from (tenant seed, pushed trace deltas) and the tenant's virtual time
// vnow (the maximum delta timestamp seen). The serving clock
// (Config.Clock) never leaks in, so a scripted request sequence produces
// byte-identical plan bodies across runs, across any run-slot count, and
// whatever the interleaving of other tenants' jobs: a tenant's jobs run
// one at a time under its lock.
package controlplane

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"caribou/internal/dag"
	"caribou/internal/manager"
	"caribou/internal/metrics"
	"caribou/internal/montecarlo"
	"caribou/internal/netmodel"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/workloads"

	"caribou/internal/carbon"
	"caribou/internal/pricing"
)

// TenantSpec is the registration-time configuration of one workflow.
type TenantSpec struct {
	ID       string
	Workload *workloads.Workload
	Home     region.ID
	Regions  []region.ID
	Priority solver.Priority
	// Hourly enables 24-plan solves when the budget affords them; daily
	// tenants are pinned to single-plan generations.
	Hourly        bool
	InitialTokens float64
	Seed          int64
}

// PlanSnapshot is the immutable plan state published after each solve and
// read lock-free by GET /plan via atomic.Pointer. Times are tenant virtual
// time.
type PlanSnapshot struct {
	Version     int
	Granularity manager.Granularity
	GeneratedAt time.Time
	ExpiresAt   time.Time
	Plans       dag.HourlyPlans
	CarbonMean  float64 // gCO2e per invocation at generation time
	LatencyMean float64 // seconds
	CostMean    float64 // USD
}

// PlanAt returns the assignment serving traffic at virtual time t.
func (s *PlanSnapshot) PlanAt(t time.Time) dag.Plan {
	return s.Plans[t.UTC().Hour()]
}

// Stale reports whether the snapshot has lapsed at virtual time t: a
// plan serves up to, not including, its expiry.
func (s *PlanSnapshot) Stale(t time.Time) bool {
	return !t.Before(s.ExpiresAt)
}

// Tenant is one registered workflow. All mutation happens in a job under
// the tenant's lock (Server.submit); the plan pointer and virtual time are
// the only reads outside it.
type Tenant struct {
	mu     sync.Mutex // serializes the tenant's jobs
	spec   TenantSpec
	mm     *metrics.Manager
	win    manager.Window
	solv   *solver.Solver
	stream *manager.Stream
	synth  *synthesizer

	plan     atomic.Pointer[PlanSnapshot]
	vnowNano atomic.Int64
	admitted atomic.Int64 // jobs admitted, running or waiting (Tenant.admit)
	// limit is the last instant virtual time may reach: the end of the
	// server's horizon, which the shared carbon source covers.
	limit time.Time

	versions int
}

// TenantSeed derives a tenant's RNG seed from the server seed and its ID —
// stable across runs and independent of registration order.
func TenantSeed(serverSeed int64, id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return serverSeed ^ int64(h.Sum64())
}

// newTenant builds the tenant's full planning stack and runs its initial
// budget check at virtual time start; limit is as far as its virtual time
// may advance. The carbon source and catalogue are shared server-wide;
// each tenant gets its own metric window, estimator, and solver seeded
// from spec.Seed.
func newTenant(spec TenantSpec, cat *region.Catalogue, src carbon.Source, start, limit time.Time, maxIterations int) (*Tenant, error) {
	sub, err := cat.Subset(spec.Regions)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: region set: %w", spec.ID, err)
	}
	net := netmodel.New(sub)
	mm := metrics.New(spec.Workload.DAG, spec.Home, sub, net, src, pricing.DefaultBook())
	est := montecarlo.New(mm, carbon.BestCase(), spec.Seed)
	solv, err := solver.New(solver.Config{
		Inputs:    mm,
		Estimator: est,
		Objective: solver.Objective{
			Priority:   spec.Priority,
			Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
		},
		Seed:          spec.Seed,
		MaxIterations: maxIterations,
		Workers:       1, // run slots provide the concurrency
	})
	if err != nil {
		return nil, fmt.Errorf("tenant %s: solver: %w", spec.ID, err)
	}
	tokens := spec.InitialTokens
	if tokens == 0 {
		// Default grant: twice the daily solve cost (priced at a
		// conservative 400 gCO2e/kWh), so registration always affords an
		// initial plan and leaves budget for one re-solve.
		tokens = 2 * manager.SolveCost(400, spec.Workload.DAG.Len(), len(spec.Regions), false)
	}
	stream := manager.NewStream(manager.Config{InitialTokens: tokens}, start)
	t := &Tenant{
		spec:   spec,
		mm:     mm,
		win:    manager.Window{MM: mm, Home: spec.Home, Hourly: spec.Hourly},
		solv:   solv,
		stream: stream,
		synth:  newSynthesizer(spec.Workload, spec.Home, spec.Seed),
		limit:  limit,
	}
	t.vnowNano.Store(start.UnixNano())

	// Warm the metric window with a day of synthetic home-region traffic
	// preceding start, so the solver's home baseline and the estimator's
	// duration distributions exist before the first real delta arrives. A
	// day's records can all miss a conditional stage, which would leave the
	// estimator without its durations, so the day is expanded again — at
	// most maxWarmups times in all — until every stage has run.
	for range maxWarmups {
		for _, rec := range t.synth.expand(24, workloads.Small, start, 24*time.Hour) {
			mm.Ingest(rec)
		}
		if t.everyStageRan() {
			break
		}
	}
	// Registration runs the first budget check immediately: with an
	// initial token grant the tenant has a plan before its first query, and
	// a solve that fails fails the registration.
	if _, err := t.check(start); err != nil {
		return nil, err
	}
	return t, nil
}

// maxWarmups caps registration's warm-up expansions: a stage that
// maxWarmups warm-up days never ran fails registration as before, with the
// solve's missing-data error.
const maxWarmups = 8

// everyStageRan reports whether the metric window holds home-region
// durations for every stage.
func (t *Tenant) everyStageRan() bool {
	for _, n := range t.spec.Workload.DAG.Nodes() {
		if _, err := t.mm.ExecDuration(n, t.spec.Home); err != nil {
			return false
		}
	}
	return true
}

// VNow reports the tenant's virtual time: the newest trace timestamp.
func (t *Tenant) VNow() time.Time { return time.Unix(0, t.vnowNano.Load()).UTC() }

// Plan returns the current snapshot (nil before the first solve). Safe
// from any goroutine.
func (t *Tenant) Plan() *PlanSnapshot { return t.plan.Load() }

// Tokens reports the stream's current budget. Under the tenant's lock.
func (t *Tenant) Tokens() float64 { return t.stream.Tokens() }

// advance moves virtual time forward monotonically.
func (t *Tenant) advance(at time.Time) time.Time {
	now := t.VNow()
	if at.After(now) {
		t.vnowNano.Store(at.UnixNano())
		return at.UTC()
	}
	return now
}

// Delta is one pushed trace increment.
type Delta struct {
	At          time.Time
	Invocations int
	Class       workloads.InputClass
	// MeanRuntimeSec overrides the workload's analytic mean service time
	// in accrual; zero uses the analytic value.
	MeanRuntimeSec float64
}

// DeltaResult reports what one delta did to the tenant, and the virtual
// time and plan version it left.
type DeltaResult struct {
	Earned      float64
	Tokens      float64
	Solved      bool
	Skipped     bool
	Granularity manager.Granularity
	NextDue     time.Time
	VNow        time.Time
	PlanVersion int
}

// ErrBeyondHorizon rejects a delta stamped past the server's horizon: no
// carbon data exists there, so nothing after it could be priced.
var ErrBeyondHorizon = errors.New("timestamp beyond the server's horizon")

// OnDelta ingests a trace delta: advances virtual time, expands the delta
// into synthetic records, accrues tokens under the shared §5.2 rule, and
// runs a budget check when one is due. A delta past the horizon is
// refused before anything changes. Under the tenant's lock.
//
//caribou:hot
func (t *Tenant) OnDelta(d Delta) (DeltaResult, error) {
	if d.At.After(t.limit) {
		return DeltaResult{}, fmt.Errorf("tenant %s: at %s: %w (ends %s)", t.spec.ID,
			d.At.UTC().Format(time.RFC3339), ErrBeyondHorizon, t.limit.UTC().Format(time.RFC3339))
	}
	prev := t.VNow()
	now := t.advance(d.At)

	window := now.Sub(prev)
	for _, rec := range t.synth.expand(d.Invocations, d.Class, now, window) {
		t.mm.Ingest(rec)
	}

	res := DeltaResult{}
	if d.Invocations > 0 {
		runtime := d.MeanRuntimeSec
		if runtime <= 0 {
			runtime = t.spec.Workload.MeanServiceTimeSec(d.Class)
		}
		homeI, minI, err := t.win.Spread(now)
		if err != nil {
			return res, fmt.Errorf("tenant %s: accrual: %w", t.spec.ID, err)
		}
		res.Earned = t.stream.Accrue(d.Invocations, runtime, homeI, minI)
	}

	if t.stream.Due(now) {
		g, err := t.check(now)
		if err != nil {
			return res, err
		}
		res.Granularity = g
		res.Solved = g != manager.GranularityNone
		res.Skipped = !res.Solved
	}
	res.Tokens = t.stream.Tokens()
	res.NextDue = t.stream.NextDue()
	res.VNow, res.PlanVersion = now, t.versions
	return res, nil
}

// check runs one due budget check at virtual time now: run the planning
// step (manager.Solve) at the affordable granularity and publish a fresh
// snapshot, or record a skip, which expires the active plan and routes
// traffic home. Under the tenant's lock.
func (t *Tenant) check(now time.Time) (manager.Granularity, error) {
	hourlyCost, dailyCost := t.win.Costs(now)
	g := t.stream.Check(now, hourlyCost, dailyCost)
	cost := dailyCost
	switch g {
	case manager.GranularityNone:
		// Republish the served snapshot with the expiry the check cut
		// short, so GET reports the lapse.
		if old := t.plan.Load(); old != nil && !old.ExpiresAt.Equal(t.stream.PlanExpiry()) {
			cp := *old
			cp.ExpiresAt = t.stream.PlanExpiry()
			t.plan.Store(&cp)
		}
		return g, nil
	case manager.GranularityHourly:
		cost = hourlyCost
	}
	plans, results, err := manager.Solve(t.mm, t.solv, now, g)
	if err != nil {
		return manager.GranularityNone, fmt.Errorf("tenant %s: %s solve: %w", t.spec.ID, g, err)
	}
	t.publish(now, cost, g, plans, results)
	return g, nil
}

// ForceCheck runs an out-of-band budget check (POST /solve). It reports
// GranularityNone without scheduling side effects when the budget covers
// no solve, so callers can map it to 409.
func (t *Tenant) ForceCheck(now time.Time) (manager.Granularity, error) {
	if t.stream.Decide(t.win.Costs(now)) == manager.GranularityNone {
		return manager.GranularityNone, nil
	}
	return t.check(now)
}

// publish debits a plan generation at granularity g and atomically
// publishes its plans, with the current hour's estimate.
func (t *Tenant) publish(now time.Time, cost float64, g manager.Granularity, plans dag.HourlyPlans, results []solver.Result) {
	est := results[0].Estimate
	if g == manager.GranularityHourly {
		est = results[now.UTC().Hour()].Estimate
	}
	t.stream.NoteSolve(now, cost, plans)
	t.versions++
	t.plan.Store(&PlanSnapshot{
		Version:     t.versions,
		Granularity: g,
		GeneratedAt: now,
		ExpiresAt:   t.stream.PlanExpiry(),
		Plans:       plans,
		CarbonMean:  est.CarbonMean,
		LatencyMean: est.LatencyMean,
		CostMean:    est.CostMean,
	})
}
