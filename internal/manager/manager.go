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

// Manager is the pull-side driver of one workflow's Stream: on each due
// Tick it reads the metric window since the last check, runs the check,
// and solves, rolls out and charges the overhead of whatever the budget
// affords.
type Manager struct {
	win  Window
	solv *solver.Solver
	dep  *deployer.Deployer
	st   *Stream

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
		win:  Window{MM: mm, Home: home, Hourly: true},
		solv: solv,
		dep:  dep,
		st:   NewStream(cfg, start),
		tel:  newManagerTelemetry(),
	}
}

// Solves reports how many plan generations have run.
func (m *Manager) Solves() int { return m.st.Solves() }

// Tick runs the Fig 6 loop at the current virtual time: when a check is
// due it expires the active plan, accrues the window since the last check,
// runs the check, and solves and rolls out at the granularity the budget
// affords. It reports whether a new plan set was activated.
func (m *Manager) Tick(now time.Time) (bool, error) {
	if !m.st.Due(now) {
		// Between checks the Migrator retries any staged rollout; while
		// it fails, the home fallback serves traffic.
		return m.dep.HasPending() && m.dep.RetryPending() == nil, nil
	}

	// A due check expires the pre-determined deployment: traffic routes
	// home until (and unless) a fresh plan activates (§5.2).
	m.dep.Expire()

	// The sliding-window assumption of §5.2 — next period resembles the
	// last — is explicit here.
	since := m.st.PeriodStart()
	if n := m.win.MM.InvocationsSince(since); n > 0 {
		homeI, minI, err := m.win.Spread(now)
		if err != nil {
			return false, fmt.Errorf("manager: token accrual: %w", err)
		}
		m.st.Accrue(n, m.win.MM.MeanRuntimeSince(since), homeI, minI)
	}

	hourlyCost, dailyCost := m.win.Costs(now)
	g := m.st.Check(now, hourlyCost, dailyCost)
	if g == GranularityNone {
		m.tel.solveSkips.Inc()
		return false, nil
	}
	cost, hourly := dailyCost, g == GranularityHourly
	if hourly {
		cost = hourlyCost
	}
	plans, results, err := Solve(m.win.MM, m.solv, now, g)
	if err != nil {
		return false, nil // the home fallback serves traffic until the next check
	}
	m.tel.solves.Inc()
	m.tel.rec.Event("manager.solve", now,
		telemetry.String("hourly", fmt.Sprintf("%t", hourly)),
		telemetry.Float("tokens", m.st.Tokens()))
	m.OverheadGrams += cost
	// The solve is paid for whatever the rollout's outcome: the Migrator
	// retries a failed rollout of these same plans.
	m.st.NoteSolve(now, cost, plans)

	movedBytes, err := m.dep.Rollout(plans, m.st.PlanExpiry())
	m.chargeMigration(movedBytes, now)
	if err != nil {
		return false, nil
	}
	if m.OnSolve != nil {
		m.OnSolve(now, plans, results)
	}
	return true, nil
}

// Solve is the one planning step of §5.2 and §7.2: it refits mm's carbon
// forecasters through now and solves the 24 hours from now — 24 hourly
// plans with results indexed by hour of day, or, at daily granularity, one
// plan reused for every hour with its one result.
func Solve(mm *metrics.Manager, solv *solver.Solver, now time.Time, g Granularity) (dag.HourlyPlans, []solver.Result, error) {
	if err := mm.RefreshForecasts(now); err != nil {
		return dag.HourlyPlans{}, nil, err
	}
	if g == GranularityHourly {
		return solv.SolveHourly(now, now)
	}
	res, err := solv.SolveOne(now, now)
	return dag.Uniform(res.Plan), []solver.Result{res}, err
}

// chargeMigration accounts image-replication transmission carbon against
// the framework overhead (worst-case inter-region energy factor, a
// conservative charge).
func (m *Manager) chargeMigration(bytes float64, now time.Time) {
	if bytes <= 0 {
		return
	}
	intensity := m.win.homeIntensity(now)
	m.OverheadGrams += carbon.WorstCase().Carbon(intensity, intensity, false, bytes)
}

// Window prices a workflow's budget checks off its metric window; both
// drivers read their accrual spread and solve costs through it.
type Window struct {
	MM   *metrics.Manager
	Home region.ID
	// Hourly is false for a workflow pinned to daily solves.
	Hourly bool
}

// Spread returns the home region's intensity and the greenest catalogue
// region's at now: the differential TrafficTokens weights traffic by.
func (w Window) Spread(now time.Time) (homeI, minI float64, err error) {
	homeI, err = w.MM.IntensityAt(w.Home, now, now)
	if err != nil {
		return 0, 0, err
	}
	minI = homeI
	for _, id := range w.MM.Catalogue().IDs() {
		v, err := w.MM.IntensityAt(id, now, now)
		if err != nil {
			return 0, 0, err
		}
		if v < minI {
			minI = v
		}
	}
	return homeI, minI, nil
}

// Costs prices one solve at each granularity at the home region's
// intensity. A daily-pinned window's hourly cost is +Inf, so Check never
// buys it.
func (w Window) Costs(now time.Time) (hourly, daily float64) {
	intensity := w.homeIntensity(now)
	daily = SolveCost(intensity, w.MM.DAG().Len(), w.MM.Catalogue().Len(), false)
	hourly = math.Inf(1)
	if w.Hourly {
		hourly = SolveCost(intensity, w.MM.DAG().Len(), w.MM.Catalogue().Len(), true)
	}
	return hourly, daily
}

// homeIntensity is the home region's intensity at now, or a conservative
// 400 gCO2e/kWh when the lookup fails.
func (w Window) homeIntensity(now time.Time) float64 {
	intensity, err := w.MM.IntensityAt(w.Home, now, now)
	if err != nil {
		return 400
	}
	return intensity
}

// TrafficTokens converts a window of observed traffic into a carbon
// budget: invocations × mean runtime × per-second execution energy ×
// (home intensity − greenest intensity) × PUE. It is the accrual rule of
// §5.2; a non-positive intensity differential earns nothing.
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
