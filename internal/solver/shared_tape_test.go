package solver

import (
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/executor"
	"caribou/internal/metrics"
	"caribou/internal/montecarlo"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// learned learns wl homed at home from 200 simulated invocations on the
// day t0 over the evaluation-four regions, with forecasts refit through the
// next midnight, where the tests and benchmarks solve.
func learned(t testing.TB, wl *workloads.Workload, home region.ID) *metrics.Manager {
	t.Helper()
	cat, err := region.NorthAmerica().Subset(region.EvaluationFour())
	if err != nil {
		t.Fatal(err)
	}
	src, err := carbon.NewSyntheticSource(1, t0.Add(-8*24*time.Hour), t0.Add(2*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	net := netmodel.New(cat)
	mm := metrics.New(wl.DAG, home, cat, net, src, pricing.DefaultBook())
	sched := simclock.New(t0)
	p, err := platform.New(platform.Options{Sched: sched, Catalogue: cat, Net: net, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := executor.New(executor.Options{
		Platform: p, Workload: wl, Home: home, Seed: 1,
		OnComplete: func(r *platform.InvocationRecord) { mm.Ingest(r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DeployHome(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		eng.InvokeAt(t0.Add(time.Duration(i)*5*time.Minute), workloads.Small, nil)
	}
	sched.Run()
	if err := mm.RefreshForecasts(t0.Add(24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	return mm
}

// learnedHeavyTail is HeavyTailAnalytics homed in ca-central-1: the regime
// where lanes stay unconverged at batch boundaries, so rows keep extending
// the tape and bound-based pruning fires.
func learnedHeavyTail(t *testing.T) *metrics.Manager {
	return learned(t, workloads.HeavyTailAnalytics(), region.CACentral1)
}

// TestSharedTapeConcurrentHoursDeterministic races Workers: 2 and 8 row
// chunks into extending the solve's one sample tape and every hour's bound
// columns (run under -race by `make race`): plans, every estimate field
// including the sample count, and the montecarlo sample, estimate,
// pruned-candidate, bake, replay and hour-price totals must equal the
// Workers: 1 solve's. The
// last three hold because a (plan, hour) prune decision looks ahead
// exactly as far as the home row sampled at that hour — never as far as
// whichever chunk scheduling let run first had extended a header.
func TestSharedTapeConcurrentHoursDeterministic(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	t.Cleanup(telemetry.Disable)
	counters := []*telemetry.Counter{
		rec.Counter("montecarlo.pruned_candidates"),
		rec.Counter("montecarlo.samples"),
		rec.Counter("montecarlo.estimates"),
		rec.Counter("montecarlo.tape_samples"),
		rec.Counter("montecarlo.bound_bake_samples"),
		rec.Counter("montecarlo.basis_replays"),
		rec.Counter("montecarlo.hour_prices"),
	}
	mm := learnedHeavyTail(t)
	now := t0.Add(24 * time.Hour)
	solve := func(workers int) ([]Result, []int64) {
		before := make([]int64, len(counters))
		for i, c := range counters {
			before[i] = c.Value()
		}
		s, err := New(Config{
			Inputs:    mm,
			Estimator: montecarlo.New(mm, carbon.BestCase(), 1),
			Objective: Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(25)}},
			Seed:      1,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, results, err := s.SolveHourly(now, now)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counters {
			before[i] = c.Value() - before[i]
		}
		return results, before
	}
	serial, serialCtr := solve(1)
	if serialCtr[0] == 0 {
		t.Fatal("pruning never fired on the heavy-tail solve — the parity check would be vacuous")
	}
	if serialCtr[3] <= montecarlo.BatchSize || serialCtr[3] > montecarlo.MaxSamples {
		t.Errorf("one solve compiled %d tape samples, want one tape extended past its first batch", serialCtr[3])
	}
	names := []string{"pruned_candidates", "samples", "estimates", "tape_samples", "bound_bake_samples", "basis_replays", "hour_prices"}
	for _, workers := range []int{2, 8} {
		parallel, parallelCtr := solve(workers)
		for h := range serial {
			if !serial[h].Plan.Equal(parallel[h].Plan) {
				t.Errorf("workers %d hour %d plans diverge: %v vs %v", workers, h, serial[h].Plan, parallel[h].Plan)
			}
			if *serial[h].Estimate != *parallel[h].Estimate {
				t.Errorf("workers %d hour %d estimates diverge: %+v vs %+v", workers, h, serial[h].Estimate, parallel[h].Estimate)
			}
		}
		for i := range counters {
			if serialCtr[i] != parallelCtr[i] {
				t.Errorf("montecarlo.%s: %d at Workers 1, %d at Workers %d", names[i], serialCtr[i], parallelCtr[i], workers)
			}
		}
	}
}
