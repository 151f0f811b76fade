package main

import (
	"bytes"
	"fmt"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/core"
	"caribou/internal/dag"
	"caribou/internal/eval"
	"caribou/internal/executor"
	"caribou/internal/metrics"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// repro-fig7: the reproduction path researchers run — the reduced-scale
// Fig 7 of bench_test.go (two workflows, small inputs, 96 invocations a
// day) on a fresh pool, printed. Simulation (platform, executor, metrics,
// carbon) and allocation dominate; the solver is a minority share.

const fig7Seeds = 4

func fig7Options(seed int64, pool *eval.Pool) eval.Fig7Options {
	return eval.Fig7Options{
		Workloads: []*workloads.Workload{workloads.Text2SpeechCensoring(), workloads.ImageProcessing()},
		Classes:   []workloads.InputClass{workloads.Small},
		PerDay:    96,
		Seed:      seed,
		Pool:      pool,
	}
}

type fig7Instance struct {
	seed int64
	// want[k] is the figure's bytes for seed+k: equal seeds must print
	// equal bytes.
	want [fig7Seeds][]byte
	// savedPct is the best-case geomean reduction of fine(all), averaged
	// over the seeds.
	savedPct float64
	// stats sums pool activity over the ops of the last measure.
	stats eval.PoolStats
}

func reproFig7() workload {
	return workload{
		name:      "repro-fig7",
		why:       "the reproduction path researchers run: platform/executor/metrics/carbon simulation and allocation dominate, the solver is a minority share",
		setupReps: 1,
		setup: func(c *ctx, sp *telemetry.Span) (instance, error) {
			// Set-up is the first, cold figure for each of the op's seeds:
			// it synthesizes their carbon traces and yields the reference
			// bytes every timed op is compared with.
			in := &fig7Instance{seed: c.seed}
			for k := 0; k < fig7Seeds; k++ {
				if err := in.op(k, sp); err != nil {
					return nil, err
				}
			}
			return in, nil
		},
	}
}

func (in *fig7Instance) op(i int, root *telemetry.Span) error {
	k := i % fig7Seeds
	pool := eval.NewPool(0)
	var rows []eval.Fig7Row
	err := inSpan(root, "eval.Fig7", func() (err error) {
		rows, err = eval.Fig7(fig7Options(in.seed+int64(k), pool))
		return err
	})
	if err != nil {
		return err
	}
	var out bytes.Buffer
	_ = inSpan(root, "eval.PrintFig7", func() error {
		eval.PrintFig7(&out, rows)
		return nil
	})
	st := pool.Stats()
	in.stats.Submitted += st.Submitted
	in.stats.Executed += st.Executed
	in.stats.Hits += st.Hits
	if in.want[k] == nil {
		in.want[k] = out.Bytes()
		in.savedPct += 100 * (1 - eval.Fig7Geomeans(rows)["best"]) / fig7Seeds
	} else if !bytes.Equal(out.Bytes(), in.want[k]) {
		return fmt.Errorf("fig7 bytes for seed %d differ from the first run with that seed", in.seed+int64(k))
	}
	return nil
}

func (in *fig7Instance) measure(c *ctx, warm, d time.Duration) *phase {
	in.stats = eval.PoolStats{}
	return closedLoop(c, warm, d, in.op)
}

func (in *fig7Instance) carbonSavedPct() float64 { return in.savedPct }

func (in *fig7Instance) close() {}

// probe unrolls eval.Run through the core API with a span around each
// layer call, then times the remaining layers in isolation.
func (in *fig7Instance) probe(c *ctx, ph *phase, m metricSet) {
	root := c.rec.StartSpan("probe")
	defer root.End()

	m["eval.pool_executed_per_op"] = ratio(float64(in.stats.Executed), float64(ph.attempted))
	m["eval.pool_memo_hit_share"] = ratio(float64(in.stats.Hits), float64(in.stats.Submitted))
	solveCounterMetrics(ph.counters, m)

	wl := workloads.Text2SpeechCensoring()
	cfg := eval.RunConfig{Workload: wl, Class: workloads.Small, PerDay: 96, Seed: in.seed, Regions: region.EvaluationFour()}

	before := snapshotCounters(c.rec)
	fine, err := unrolledFineRun(cfg, root, m)
	if err != nil {
		c.printf("probe: unrolled run: %v\n", err)
		return
	}
	d := counterDeltas(before, snapshotCounters(c.rec))
	inv := float64(d["platform.invocations"])
	m["platform.invocations_per_run"] = inv
	m["platform.transfers_per_run"] = float64(d["platform.transfers"])
	m["platform.cold_start_share"] = ratio(float64(d["platform.cold_starts"]), inv)
	m["executor.sim_us_per_invocation"] = ratio(m["executor.sim_us_per_invocation"], inv)

	m["core.summarize_ms"] = timeMs(func() {
		_ = inSpan(root, "eval.Result.Summarize", func() error {
			_, err := fine.Summarize(carbon.BestCase())
			return err
		})
	})

	// Metric-window ingest of the run's records into a fresh manager.
	recs := fine.App.Records
	mm := metrics.New(wl.DAG, region.USEast1, fine.Env.Cat, fine.Env.Net, fine.Env.Carbon, fine.Env.Book)
	ingestMs := timeMs(func() {
		_ = inSpan(root, "metrics.Manager.Ingest", func() error {
			for _, r := range recs {
				mm.Ingest(r)
			}
			return nil
		})
	})
	m["metrics.ingest_us_per_record"] = ratio(1e3*ingestMs, float64(len(recs)))

	// A seed no other code in this process asks for, so the shared cache
	// misses and the synthesis is what is timed.
	m["carbon.source_build_ms"] = timeMs(func() {
		_ = inSpan(root, "carbon.SharedSource", func() error {
			_, err := carbon.SharedSource(in.seed^0x5eedbeef, eval.EvalStart.Add(-8*24*time.Hour), eval.EvalStart.Add(4*24*time.Hour))
			return err
		})
	})

	m["eval.run_fine_ms"] = timeMs(func() {
		_ = inSpan(root, "eval.Run/fine", func() error { _, err := eval.Run(cfg); return err })
	})
	coarse := cfg
	coarse.Strategy = eval.CoarseIn(region.CACentral1)
	m["eval.run_coarse_ms"] = timeMs(func() {
		_ = inSpan(root, "eval.Run/coarse", func() error { _, err := eval.Run(coarse); return err })
	})

	figMs := func(workers int) float64 {
		return timeMs(func() {
			_ = inSpan(root, fmt.Sprintf("eval.Fig7/workers=%d", workers), func() error {
				_, err := eval.Fig7(fig7Options(in.seed, eval.NewPool(workers)))
				return err
			})
		})
	}
	m["eval.pool_parallel_speedup"] = ratio(figMs(1), figMs(0))
}

// unrolledFineRun is eval.Run's fine-grained path spelled out against the
// core API, so each layer call sits in its own span. It fills the layer
// timings of m; executor.sim_us_per_invocation holds the summed
// simulation time until the caller divides it by the invocation count.
func unrolledFineRun(cfg eval.RunConfig, root *telemetry.Span, m metricSet) (*eval.Result, error) {
	start := eval.EvalStart
	evalStart := start.Add(24 * time.Hour)
	var env *core.Env
	var app *core.App
	var err error
	m["core.env_build_ms"] = timeMs(func() {
		err = inSpan(root, "core.NewEnv", func() (err error) {
			env, err = core.NewEnv(core.EnvConfig{Seed: cfg.Seed, Start: start, End: start.Add(48 * time.Hour), Regions: cfg.Regions})
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	err = inSpan(root, "core.Env.NewApp", func() (err error) {
		app, err = env.NewApp(core.AppConfig{
			Workload:      cfg.Workload,
			Home:          region.USEast1,
			Mode:          executor.ModeCaribou,
			Objective:     solver.Objective{Priority: solver.PriorityCarbon, Tolerances: solver.Tolerances{Latency: solver.Tol(latencyTolerancePc)}},
			Tx:            carbon.BestCase(),
			Regions:       cfg.Regions,
			Seed:          cfg.Seed,
			BenchFraction: 0.10,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	gap := 24 * time.Hour / time.Duration(cfg.PerDay)
	var simMs float64
	app.ScheduleUniform(start, cfg.PerDay, gap, cfg.Class)
	simMs += timeMs(func() {
		_ = inSpan(root, "core.Env.RunUntil", func() error { env.RunUntil(evalStart); return nil })
	})
	first := len(app.Records)
	m["metrics.refresh_forecasts_ms"] = timeMs(func() {
		err = inSpan(root, "metrics.Manager.RefreshForecasts", func() error { return app.Metrics.RefreshForecasts(evalStart) })
	})
	if err != nil {
		return nil, err
	}
	var plans dag.HourlyPlans
	err = inSpan(root, "solver.SolveHourly", func() (err error) {
		plans, _, err = app.Solver.SolveHourly(evalStart, evalStart)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["deployer.deploy_ms"] = timeMs(func() {
		err = inSpan(root, "core.App.DeployPlanRegions", func() error { _, err := app.DeployPlanRegions(plans); return err })
	})
	if err != nil {
		return nil, err
	}
	app.SetStaticPlans(plans)
	app.ScheduleUniform(evalStart, cfg.PerDay, gap, cfg.Class)
	simMs += timeMs(func() {
		_ = inSpan(root, "core.Env.RunUntil", func() error { env.Run(); return nil })
	})
	m["executor.sim_us_per_invocation"] = 1e3 * simMs
	return &eval.Result{Env: env, App: app, Start: first}, nil
}
