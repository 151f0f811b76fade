// Package core wires Caribou together: it assembles the simulated cloud
// environment (regions, grid carbon, network, prices, platform) and, per
// workflow, the full control loop of Fig 4 — executor, Metric Manager,
// Monte Carlo estimator, Deployment Solver, Deployment Manager, and
// Deployment Utility/Migrator. The evaluation harness and the public API
// both build on this package.
package core

import (
	"fmt"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/deployer"
	"caribou/internal/executor"
	"caribou/internal/manager"
	"caribou/internal/metrics"
	"caribou/internal/montecarlo"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/solver"
	"caribou/internal/trace"
	"caribou/internal/workloads"
)

// EnvConfig configures a simulated environment.
type EnvConfig struct {
	Seed int64
	// Start and End bound the experiment window. The carbon source is
	// materialized with enough margin for forecaster training (one week
	// before Start) and post-window forecasting.
	Start, End time.Time
	// Regions restricts the catalogue (defaults to all NA regions).
	Regions []region.ID
}

// Env is one simulated cloud environment on a shared virtual clock.
type Env struct {
	Seed     int64
	End      time.Time
	Sched    *simclock.Scheduler
	Cat      *region.Catalogue
	Carbon   *carbon.SyntheticSource
	Net      *netmodel.Model
	Book     *pricing.Book
	Platform *platform.Platform
}

// NewEnv builds an environment starting its clock at cfg.Start.
func NewEnv(cfg EnvConfig) (*Env, error) {
	if !cfg.End.After(cfg.Start) {
		return nil, fmt.Errorf("core: End %v not after Start %v", cfg.End, cfg.Start)
	}
	// The global catalogue is the superset; the default environment is
	// the six North American regions, matching the paper's setting.
	base := region.Global()
	ids := cfg.Regions
	if len(ids) == 0 {
		ids = region.NorthAmerica().IDs()
	}
	cat, err := base.Subset(ids)
	if err != nil {
		return nil, err
	}
	// Traces come from the shared cache: environments with the same
	// (seed, window) — e.g. the dozens of independent runs of one figure
	// sweep — share one immutable source instead of re-synthesizing it.
	src, err := carbon.SharedSource(cfg.Seed, cfg.Start.Add(-8*24*time.Hour), cfg.End.Add(2*24*time.Hour))
	if err != nil {
		return nil, err
	}
	sched := simclock.New(cfg.Start)
	net := netmodel.New(cat)
	p, err := platform.New(platform.Options{Sched: sched, Catalogue: cat, Net: net, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Env{
		Seed: cfg.Seed, End: cfg.End,
		Sched: sched, Cat: cat, Carbon: src, Net: net,
		Book: pricing.DefaultBook(), Platform: p,
	}, nil
}

// Run drives the virtual clock to the environment's end time.
func (e *Env) Run() { e.Sched.RunUntil(e.End) }

// RunUntil drives the virtual clock to t.
func (e *Env) RunUntil(t time.Time) { e.Sched.RunUntil(t) }

// AppConfig configures one managed workflow in an environment.
type AppConfig struct {
	Workload *workloads.Workload
	Home     region.ID
	Mode     executor.Mode
	// Objective is the developer's priority and tolerances (§8).
	Objective solver.Objective
	// Constraint is the workflow-level compliance constraint.
	Constraint region.Constraint
	// Regions restricts solver candidates (defaults to the catalogue).
	Regions []region.ID
	// Tx selects the transmission-carbon model used for policy
	// decisions (the evaluation accounts records under both scenarios
	// regardless).
	Tx carbon.TransmissionModel
	// Adaptive enables the Deployment Manager control loop; otherwise
	// plans are set manually via SetStaticPlans.
	Adaptive bool
	// BenchFraction overrides the 10 % benchmarking traffic share.
	BenchFraction float64
	Seed          int64
}

// App is one fully wired workflow.
type App struct {
	Env       *Env
	Workload  *workloads.Workload
	Home      region.ID
	Engine    *executor.Engine
	Metrics   *metrics.Manager
	Estimator *montecarlo.Estimator
	Solver    *solver.Solver
	Deployer  *deployer.Deployer
	Manager   *manager.Manager
	Records   []*platform.InvocationRecord
	// InvokeErrors counts scheduling-time invocation failures.
	InvokeErrors int
}

// NewApp wires a workflow into the environment and performs the initial
// home-region deployment.
func (e *Env) NewApp(cfg AppConfig) (*App, error) {
	return e.NewAppWithCarbon(cfg, e.Carbon)
}

// NewAppWithCarbon is NewApp with an alternative carbon-intensity signal
// feeding the Metric Manager (e.g. a marginal-intensity source for the
// ACI-vs-MCI sensitivity study). Record accounting still uses the
// environment's average-intensity source, matching how MCI-driven
// decisions are evaluated against measurable average carbon.
func (e *Env) NewAppWithCarbon(cfg AppConfig, src carbon.Source) (*App, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("core: Workload is required")
	}
	if cfg.Home == "" {
		cfg.Home = region.USEast1
	}
	if cfg.Tx == (carbon.TransmissionModel{}) {
		cfg.Tx = carbon.BestCase()
	}
	if src == nil {
		src = e.Carbon
	}
	app := &App{Env: e, Workload: cfg.Workload, Home: cfg.Home}

	mm := metrics.New(cfg.Workload.DAG, cfg.Home, e.Cat, e.Net, src, e.Book)
	app.Metrics = mm

	eng, err := executor.New(executor.Options{
		Platform: e.Platform,
		Workload: cfg.Workload,
		Home:     cfg.Home,
		Mode:     cfg.Mode,
		// Plan source wired below (deployer for adaptive apps).
		BenchFraction: cfg.BenchFraction,
		Seed:          seedOr(cfg.Seed, e.Seed),
		OnComplete: func(r *platform.InvocationRecord) {
			app.Records = append(app.Records, r)
			mm.Ingest(r)
		},
	})
	if err != nil {
		return nil, err
	}
	app.Engine = eng

	app.Estimator = montecarlo.New(mm, cfg.Tx, seedOr(cfg.Seed, e.Seed))
	app.Solver, err = solver.New(solver.Config{
		Inputs:     mm,
		Estimator:  app.Estimator,
		Objective:  cfg.Objective,
		Constraint: cfg.Constraint,
		Regions:    cfg.Regions,
		Seed:       seedOr(cfg.Seed, e.Seed),
	})
	if err != nil {
		return nil, err
	}

	app.Deployer = deployer.New(eng, e.Platform)
	if err := app.Deployer.InitialDeploy(); err != nil {
		return nil, err
	}

	if cfg.Adaptive {
		app.Manager = manager.New(manager.Config{}, mm, app.Solver, app.Deployer, cfg.Home, e.Sched.Now())
		eng.SetPlans(app.Deployer)
	}
	return app, nil
}

func seedOr(s, fallback int64) int64 {
	if s != 0 {
		return s
	}
	return fallback
}

// SetStaticPlans routes traffic per a fixed hourly plan set. The caller
// must have deployed the referenced regions (DeployPlanRegions).
func (a *App) SetStaticPlans(plans dag.HourlyPlans) {
	a.Engine.SetPlans(executor.StaticPlans{Hourly: plans})
}

// DeployPlanRegions ensures deployments exist for every assignment in the
// plan set, returning migrated image bytes.
func (a *App) DeployPlanRegions(plans dag.HourlyPlans) (float64, error) {
	var moved float64
	for _, plan := range plans {
		// Sorted stage order keeps deployment side effects and the
		// byte accounting independent of map iteration order.
		for _, node := range plan.SortedNodes() {
			b, err := a.Engine.EnsureDeployment(node, plan[node])
			if err != nil {
				return moved, err
			}
			moved += b
		}
	}
	return moved, nil
}

// ScheduleTrace schedules one invocation per trace event.
func (a *App) ScheduleTrace(events []trace.Event) {
	for _, ev := range events {
		class := workloads.Small
		if ev.Large {
			class = workloads.Large
		}
		a.Engine.InvokeAt(ev.At, class, func(error) { a.InvokeErrors++ })
	}
}

// ScheduleUniform schedules n invocations of class spaced by gap,
// starting at start.
func (a *App) ScheduleUniform(start time.Time, n int, gap time.Duration, class workloads.InputClass) {
	for i := 0; i < n; i++ {
		a.Engine.InvokeAt(start.Add(time.Duration(i)*gap), class, func(error) { a.InvokeErrors++ })
	}
}

// ScheduleManagerTicks drives the Deployment Manager's token checks at
// the given cadence until the environment's end.
func (a *App) ScheduleManagerTicks(interval time.Duration) {
	if a.Manager == nil {
		return
	}
	var tick func()
	tick = func() {
		now := a.Env.Sched.Now()
		if !now.Before(a.Env.End) {
			return
		}
		if _, err := a.Manager.Tick(now); err != nil {
			// Solve/rollout failures leave the home fallback active;
			// the loop keeps running.
			_ = err
		}
		a.Env.Sched.After(interval, tick)
	}
	a.Env.Sched.After(interval, tick)
}
