// Package manager implements Caribou's Deployment Manager (§5.2, Fig 6):
// a token-bucket controller that self-regulates how often new deployment
// plans are generated so that the framework's own carbon overhead (plan
// solving, metric collection, migration) stays below the savings the
// plans produce. Tokens denominate grams of CO2-eq: they accrue from
// recent invocation volume and runtime weighted by the carbon-intensity
// differential between the home region and the greenest reachable region,
// and are spent on deployment-plan generation, whose cost scales with DAG
// complexity and the framework's own region intensity.
package manager

import (
	"fmt"
	"math"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/deployer"
	"caribou/internal/metrics"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/telemetry"
)

// The control loop's fixed parameters. The Deployment Manager and solver
// functions are hosted in the workflow's home region, so their execution
// carbon is charged at home's intensity.
const (
	// MinCheckInterval and MaxCheckInterval bound the sigmoid-smoothed
	// next-check schedule.
	MinCheckInterval = 6 * time.Hour
	MaxCheckInterval = 48 * time.Hour
	// SolveSecondsPerEstimate calibrates the solver's own compute cost:
	// wall seconds of framework Lambda time per candidate-plan estimate.
	// The paper reports ~534 s for a 24-solve generation of the
	// Text2Speech DAG in Python and ~276 s with the Go Monte Carlo engine
	// (§9.7); this matches the Go implementation.
	SolveSecondsPerEstimate float64 = 276.0 / (24 * 144)
	// SolverMemoryMB and SolverUtil describe the solver function.
	SolverMemoryMB float64 = 1769
	SolverUtil     float64 = 0.95
	// PlanValidity is the minimum lifetime of an activated plan set;
	// plans normally live until the next token check expires them.
	PlanValidity = 24 * time.Hour
)

// Config holds the control loop's one setting.
type Config struct {
	// InitialTokens jump-starts the learning phase so the first solve
	// can happen before savings have been realized.
	InitialTokens float64
}

// IntensityProvider supplies current grid intensity per region; the
// Metric Manager satisfies it.
type IntensityProvider interface {
	IntensityAt(r region.ID, t, now time.Time) (float64, error)
	Catalogue() *region.Catalogue
}

// Manager runs the token-bucket control loop for one workflow.
type Manager struct {
	mm   *metrics.Manager
	solv *solver.Solver
	dep  *deployer.Deployer
	home region.ID

	tokens     float64
	lastCheck  time.Time
	nextCheck  time.Time
	lastEarned float64 // tokens earned in the most recent period

	solves     int
	solveSkips int
	// lastPlans and stabilityFactor implement the learning-phase
	// behaviour of Fig 11: while consecutive solves produce similar
	// 24-hour plan sets, checks back off multiplicatively; a shift in
	// the produced plans resets the cadence.
	lastPlans       *dag.HourlyPlans
	stabilityFactor float64
	// OverheadGrams accumulates the framework's own operational carbon:
	// solver executions and migration transfers.
	OverheadGrams float64
	// OnSolve, when set, observes each completed solve.
	OnSolve func(now time.Time, plans dag.HourlyPlans, results []solver.Result)

	tel managerTelemetry
}

// managerTelemetry holds instrument handles captured at construction;
// nil-safe no-ops when telemetry is off.
type managerTelemetry struct {
	rec        *telemetry.Recorder
	solves     *telemetry.Counter
	solveSkips *telemetry.Counter
}

func newManagerTelemetry() managerTelemetry {
	rec := telemetry.Default()
	return managerTelemetry{
		rec:        rec,
		solves:     rec.Counter("manager.solves"),
		solveSkips: rec.Counter("manager.solve_skips"),
	}
}

// New wires a manager. start seeds the first check time.
func New(cfg Config, mm *metrics.Manager, solv *solver.Solver, dep *deployer.Deployer, home region.ID, start time.Time) *Manager {
	return &Manager{
		mm:              mm,
		solv:            solv,
		dep:             dep,
		home:            home,
		tokens:          cfg.InitialTokens,
		lastCheck:       start,
		nextCheck:       start.Add(MinCheckInterval),
		stabilityFactor: 1,
		tel:             newManagerTelemetry(),
	}
}

// NextCheck reports when the next token check is due.
func (m *Manager) NextCheck() time.Time { return m.nextCheck }

// Tokens reports the current carbon budget in grams.
func (m *Manager) Tokens() float64 { return m.tokens }

// Solves reports how many plan generations have run.
func (m *Manager) Solves() int { return m.solves }

// Tick runs the Fig 6 loop at the current virtual time: when a check is
// due it expires the active plan, collects metrics, converts them into
// tokens, solves if the budget suffices, and schedules the next check. It
// reports whether a new plan set was activated.
func (m *Manager) Tick(now time.Time) (bool, error) {
	if now.Before(m.nextCheck) {
		// Between checks the Migrator retries any staged rollout.
		if m.dep.HasPending() {
			if err := m.dep.RetryPending(); err != nil {
				return false, nil // keep waiting; home fallback serves traffic
			}
			return true, nil
		}
		return false, nil
	}

	periodHours := now.Sub(m.lastCheck).Hours()
	if periodHours <= 0 {
		periodHours = MinCheckInterval.Hours()
	}

	// A due check expires the pre-determined deployment: traffic routes
	// home until (and unless) a fresh plan activates (§5.2).
	m.dep.Expire()

	// Collect metrics → tokens.
	earned, err := m.earnTokens(now)
	if err != nil {
		return false, fmt.Errorf("manager: token accrual: %w", err)
	}
	m.tokens += earned
	m.lastEarned = earned

	cost := m.solveCost(now, true)
	// The next check time is fixed before solving so the fresh plans can
	// live exactly until that check expires them (§5.2: a due check
	// expires the pre-determined deployment).
	interval := m.checkInterval(cost, periodHours)
	// An hour of slack so the check, not the clock, expires plans.
	validity := max(interval+time.Hour, PlanValidity)

	activated := false
	switch {
	case m.tokens >= cost:
		if err := m.solveAndRollout(now, true, validity); err == nil {
			m.tokens -= cost
			activated = true
		}
	case m.tokens >= m.solveCost(now, false):
		// Budget covers only a coarse daily plan: one solve reused
		// for all 24 hours (§5.2 granularity adaptation).
		if err := m.solveAndRollout(now, false, validity); err == nil {
			m.tokens -= m.solveCost(now, false)
			activated = true
		}
	default:
		m.solveSkips++
		m.tel.solveSkips.Inc()
	}

	m.lastCheck = now
	m.nextCheck = now.Add(interval)
	return activated, nil
}

// TrafficTokens converts a window of observed traffic into a carbon
// budget: invocations × mean runtime × per-second execution energy ×
// (home intensity − greenest intensity) × PUE. It is the accrual rule of
// §5.2 shared by the Tick-driven Manager and the event-driven Stream; a
// non-positive intensity differential earns nothing.
func TrafficTokens(invocations int, meanRuntimeSec, homeIntensity, minIntensity float64) float64 {
	if invocations == 0 {
		return 0
	}
	diff := homeIntensity - minIntensity
	if diff <= 0 {
		return 0
	}
	// Representative per-second execution energy of one stage.
	energyPerSec := carbon.ExecutionEnergyKWh(1769, 1, 0.8)
	perInvocation := meanRuntimeSec * energyPerSec * diff * carbon.PUE
	return float64(invocations) * perInvocation
}

// earnTokens converts the last period's observed traffic into a carbon
// budget via TrafficTokens. The sliding-window assumption of §5.2 — next
// period resembles the last — is explicit here.
func (m *Manager) earnTokens(now time.Time) (float64, error) {
	invocations := m.mm.InvocationsSince(m.lastCheck)
	if invocations == 0 {
		return 0, nil
	}
	meanRuntime := m.mm.MeanRuntimeSince(m.lastCheck)

	homeI, err := m.mm.IntensityAt(m.home, now, now)
	if err != nil {
		return 0, err
	}
	minI := homeI
	for _, id := range m.mm.Catalogue().IDs() {
		v, err := m.mm.IntensityAt(id, now, now)
		if err != nil {
			return 0, err
		}
		if v < minI {
			minI = v
		}
	}
	return TrafficTokens(invocations, meanRuntime, homeI, minI), nil
}

// SolveCost estimates the carbon cost of one plan generation for a DAG of
// dagNodes stages solved over a catalogue of regions candidate regions:
// solver compute time (scaling with DAG size and region count —
// application complexity, §5.2) priced at the given grid intensity.
// hourly solves cost 24× a single daily solve.
func SolveCost(intensity float64, dagNodes, regions int, hourly bool) float64 {
	estimates := float64(dagNodes) * float64(regions) * 6
	seconds := estimates * SolveSecondsPerEstimate
	if hourly {
		seconds *= 24
	}
	return carbon.ExecutionCarbon(intensity, SolverMemoryMB, seconds, SolverUtil)
}

// solveCost prices one plan generation at the home region's current
// intensity (conservative 400 gCO2eq/kWh when the lookup fails).
func (m *Manager) solveCost(now time.Time, hourly bool) float64 {
	intensity, err := m.mm.IntensityAt(m.home, now, now)
	if err != nil {
		intensity = 400 // conservative default
	}
	return SolveCost(intensity, m.mm.DAG().Len(), m.mm.Catalogue().Len(), hourly)
}

func (m *Manager) solveAndRollout(now time.Time, hourly bool, validity time.Duration) error {
	if err := m.mm.RefreshForecasts(now); err != nil {
		return err
	}
	var plans dag.HourlyPlans
	var results []solver.Result
	if hourly {
		var err error
		plans, results, err = m.solv.SolveHourly(now, now)
		if err != nil {
			return err
		}
	} else {
		res, err := m.solv.SolveOne(now, now)
		if err != nil {
			return err
		}
		plans = dag.Uniform(res.Plan)
		results = []solver.Result{res}
	}
	m.solves++
	m.tel.solves.Inc()
	m.tel.rec.Event("manager.solve", now,
		telemetry.String("hourly", fmt.Sprintf("%t", hourly)),
		telemetry.Float("tokens", m.tokens))
	m.OverheadGrams += m.solveCost(now, hourly)
	m.updateStability(plans)

	movedBytes, err := m.dep.Rollout(plans, now.Add(validity))
	m.chargeMigration(movedBytes, now)
	if err != nil {
		return err
	}
	if m.OnSolve != nil {
		m.OnSolve(now, plans, results)
	}
	return nil
}

// chargeMigration accounts image-replication transmission carbon against
// the framework overhead (worst-case inter-region energy factor, a
// conservative charge).
func (m *Manager) chargeMigration(bytes float64, now time.Time) {
	if bytes <= 0 {
		return
	}
	intensity, err := m.mm.IntensityAt(m.home, now, now)
	if err != nil {
		intensity = 400
	}
	m.OverheadGrams += carbon.WorstCase().Carbon(intensity, intensity, false, bytes)
}

// planStability implements the learning-phase backoff of Fig 11 as a pure
// rule shared by Manager and Stream: the multiplicative factor doubles
// (capped at Max/Min) when at least three quarters of the hourly
// assignments are unchanged from the previous plan set; otherwise the
// cadence resets. A nil prev (first solve) leaves the factor untouched.
func planStability(prev *dag.HourlyPlans, plans dag.HourlyPlans, factor float64) float64 {
	if prev == nil {
		return factor
	}
	same, total := 0, 0
	for h := range plans {
		for n, r := range plans[h] {
			total++
			if prev[h][n] == r {
				same++
			}
		}
	}
	if total > 0 && float64(same)/float64(total) >= 0.75 {
		factor *= 2
		maxFactor := MaxCheckInterval.Hours() / MinCheckInterval.Hours()
		if factor > maxFactor {
			factor = maxFactor
		}
	} else {
		factor = 1
	}
	return factor
}

// updateStability compares the fresh plan set with the previous one and
// adjusts the check backoff per the planStability rule.
func (m *Manager) updateStability(plans dag.HourlyPlans) {
	m.stabilityFactor = planStability(m.lastPlans, plans, m.stabilityFactor)
	cp := plans
	m.lastPlans = &cp
}

// scheduleInterval is the §5.2 cadence rule shared by Manager and Stream:
// the shortfall between the solve cost and the earning rate, smoothed by a
// sigmoid into [MinCheckInterval, MaxCheckInterval] so the cadence tracks
// the past period's invocation rate, stretched by the plan-stability
// backoff.
func scheduleInterval(tokens, cost, ratePerHour, stabilityFactor float64) time.Duration {
	var hoursNeeded float64
	switch {
	case tokens >= cost:
		hoursNeeded = 0
	case ratePerHour <= 0:
		hoursNeeded = MaxCheckInterval.Hours()
	default:
		hoursNeeded = (cost - tokens) / ratePerHour
	}
	minH := MinCheckInterval.Hours()
	maxH := MaxCheckInterval.Hours()
	mid := (minH + maxH) / 2
	s := 1 / (1 + math.Exp(-(hoursNeeded-mid)/(maxH/8)))
	h := minH + (maxH-minH)*s
	if stable := minH * stabilityFactor; stable > h {
		h = stable
	}
	if h > maxH {
		h = maxH
	}
	return time.Duration(h * float64(time.Hour))
}

// checkInterval schedules the next token check from the Manager's pulled
// window: the last period's earning rate feeds the shared cadence rule.
func (m *Manager) checkInterval(cost, periodHours float64) time.Duration {
	rate := m.lastEarned / periodHours // tokens per hour
	return scheduleInterval(m.tokens, cost, rate, m.stabilityFactor)
}
