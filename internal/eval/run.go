// Package eval reproduces every table and figure of the paper's
// evaluation (§9) on the simulated substrate: each FigN/TableN function
// runs the corresponding experiment and returns printable rows, and
// Experiments lists every experiment, each run at one Scale. The
// cmd/caribou-eval binary and the repository's benchmark suite are thin
// wrappers around this package.
package eval

import (
	"fmt"
	"strings"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/core"
	"caribou/internal/dag"
	"caribou/internal/executor"
	"caribou/internal/manager"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/workloads"
)

// EvalStart is the paper's carbon-data window start (2023-10-15).
var EvalStart = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

// Strategy selects how a run is deployed.
type Strategy struct {
	// Coarse pins the whole workflow to one region; empty means fine-
	// grained Caribou solving.
	Coarse region.ID
}

// evalHome is every run's home region, and warmupDays the home-only days
// before a run's measured phase. Both are written into the canonical key
// and the blob header, so a change to either moves every cache key.
const (
	evalHome   = region.USEast1
	warmupDays = 1
)

// Fine is the Caribou fine-grained strategy.
var Fine = Strategy{}

// CoarseIn returns a coarse single-region strategy.
func CoarseIn(r region.ID) Strategy { return Strategy{Coarse: r} }

// String labels the strategy in figure legends and canonical keys: the
// coarse region without its provider prefix.
func (s Strategy) String() string {
	if s.Coarse != "" {
		return "coarse(" + strings.TrimPrefix(string(s.Coarse), "aws:") + ")"
	}
	return "fine"
}

// RunConfig parameterizes one experiment run.
type RunConfig struct {
	Workload *workloads.Workload
	Class    workloads.InputClass
	// Regions is the candidate set (evalHome must be included).
	Regions  []region.ID
	Strategy Strategy
	// PlanTx is the transmission model the solver optimizes under
	// (fine strategy only).
	PlanTx carbon.TransmissionModel
	// Tolerances bound fine-grained plans; default allows 25 % latency
	// slack, the loose-QoS setting of the headline experiments.
	Tolerances *solver.Tolerances
	// PerDay invocations are spread uniformly over each day.
	PerDay int
	// BenchFraction overrides the benchmarking-traffic share for fine
	// runs (0 keeps the 10 % default).
	BenchFraction float64
	// EvalDays are measured, after warmupDays at home seed the metrics.
	EvalDays int
	Seed     int64
}

func (c RunConfig) withDefaults() RunConfig {
	if len(c.Regions) == 0 {
		c.Regions = region.EvaluationFour()
	}
	if c.PerDay == 0 {
		c.PerDay = 192
	}
	if c.EvalDays == 0 {
		c.EvalDays = 1
	}
	if c.Seed == 0 {
		c.Seed = 17
	}
	if c.PlanTx == (carbon.TransmissionModel{}) {
		c.PlanTx = carbon.BestCase()
	}
	return c
}

// Result of one run: the environment (for accounting) and the index of
// the first measured record in App.Records.
type Result struct {
	Env   *core.Env
	App   *core.App
	Start int
}

// Run executes a single strategy run: warmup at home, then the measured
// phase under the strategy's deployment.
func Run(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	total := time.Duration(warmupDays+cfg.EvalDays) * 24 * time.Hour
	env, err := core.NewEnv(core.EnvConfig{
		Seed:    cfg.Seed,
		Start:   EvalStart,
		End:     EvalStart.Add(total),
		Regions: cfg.Regions,
	})
	if err != nil {
		return nil, err
	}
	tol := solver.Tolerances{Latency: solver.Tol(25)}
	if cfg.Tolerances != nil {
		tol = *cfg.Tolerances
	}
	app, err := env.NewApp(core.AppConfig{
		Workload:  cfg.Workload,
		Home:      evalHome,
		Mode:      executor.ModeCaribou,
		Objective: solver.Objective{Priority: solver.PriorityCarbon, Tolerances: tol},
		Tx:        cfg.PlanTx,
		Regions:   cfg.Regions,
		Seed:      cfg.Seed,
		// Benchmarking traffic stays on for fine runs (part of
		// Caribou's cost); coarse manual deployments have none.
		BenchFraction: benchFractionFor(cfg.Strategy, cfg.BenchFraction),
	})
	if err != nil {
		return nil, err
	}

	gap := 24 * time.Hour / time.Duration(cfg.PerDay)

	// Warmup phase: home only.
	app.ScheduleUniform(EvalStart, warmupDays*cfg.PerDay, gap, cfg.Class)
	evalStartT := EvalStart.Add(time.Duration(warmupDays) * 24 * time.Hour)
	env.RunUntil(evalStartT)
	startIdx := len(app.Records)

	// Deploy the strategy.
	if cfg.Strategy.Coarse != "" {
		plan := dag.NewHomePlan(cfg.Workload.DAG, cfg.Strategy.Coarse)
		plans := dag.Uniform(plan)
		if _, err := app.DeployPlanRegions(plans); err != nil {
			return nil, err
		}
		app.SetStaticPlans(plans)
		app.ScheduleUniform(evalStartT, cfg.EvalDays*cfg.PerDay, gap, cfg.Class)
		env.Run()
	} else {
		// Fine-grained: solve fresh hourly plans at each eval day
		// start, run that day.
		for d := 0; d < cfg.EvalDays; d++ {
			dayStart := evalStartT.Add(time.Duration(d) * 24 * time.Hour)
			plans, _, err := manager.Solve(app.Metrics, app.Solver, dayStart, manager.GranularityHourly)
			if err != nil {
				return nil, err
			}
			if _, err := app.DeployPlanRegions(plans); err != nil {
				return nil, err
			}
			app.SetStaticPlans(plans)
			app.ScheduleUniform(dayStart, cfg.PerDay, gap, cfg.Class)
			env.RunUntil(dayStart.Add(24 * time.Hour))
		}
		env.Run()
	}

	if len(app.Records) <= startIdx {
		return nil, fmt.Errorf("eval: run produced no measured records (%s, %s)", cfg.Workload.Name, cfg.Strategy)
	}
	return &Result{Env: env, App: app, Start: startIdx}, nil
}

func benchFractionFor(s Strategy, override float64) float64 {
	if s.Coarse != "" {
		return -1 // manual static deployment has no benchmarking split
	}
	if override != 0 {
		return override
	}
	return 0.10
}

// Summarize accounts the measured phase under tx.
func (r *Result) Summarize(tx carbon.TransmissionModel) (core.Summary, error) {
	return r.Env.Summarize(r.App.Records[r.Start:], tx)
}

// SummarizeWindow accounts only measured records completing in [from, to),
// letting multi-day runs report the steady state after the framework's
// learning feedback has corrected initial model error.
func (r *Result) SummarizeWindow(tx carbon.TransmissionModel, from, to time.Time) (core.Summary, error) {
	var recs []*platform.InvocationRecord
	for _, rec := range r.App.Records[r.Start:] {
		if !rec.End.Before(from) && rec.End.Before(to) {
			recs = append(recs, rec)
		}
	}
	return r.Env.Summarize(recs, tx)
}
