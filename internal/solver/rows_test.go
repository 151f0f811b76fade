package solver

import (
	"fmt"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/metrics"
	"caribou/internal/montecarlo"
	"caribou/internal/region"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// exhaustiveFixtures are the two learned workflows whose plan spaces sit
// under exhaustiveCutoff: RAG ingestion (4² = 16 plans, every estimate
// converges at the first boundary) and the heavy-tail chain homed in
// ca-central-1 (4⁴ = 256, lanes run for many batches and pruning fires).
func exhaustiveFixtures(t *testing.T) map[string]*metrics.Manager {
	return map[string]*metrics.Manager{
		"rag-ingestion": learned(t, workloads.RAGDataIngestion(), region.USEast1),
		"heavy-tail":    learnedHeavyTail(t),
	}
}

func learnedSolver(t *testing.T, mm *metrics.Manager, workers int, apply func(*Config)) *Solver {
	t.Helper()
	cfg := Config{
		Inputs:    mm,
		Estimator: montecarlo.New(mm, carbon.BestCase(), 1),
		Objective: Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(25)}},
		Seed:      1,
		Workers:   workers,
	}
	if apply != nil {
		apply(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if space := s.searchSpace(); space > exhaustiveCutoff {
		t.Fatalf("search space %d is not exhaustive", space)
	}
	return s
}

// TestExhaustiveRowsDeterministicAcrossEvalModes extends the workers
// {1,8} × eval-mode grid to exhaustive spaces, where SolveHourly enumerates
// once and prices every plan's hour row in one sweep: the row path must
// give the 24 plans and bit-identical estimates of the untaped reference
// path (which evaluates (plan, hour) pairs one at a time, and never
// prunes). In the default mode — also run at Workers 2 — the
// montecarlo totals — samples, estimates, pruned candidates, plan-batches
// replayed, hour prices, bound bakes — must also agree with Workers 1:
// prune decisions are pure, so neither the worker count nor the chunking it
// implies can move them (`make race` runs this under the race detector,
// with -short).
func TestExhaustiveRowsDeterministicAcrossEvalModes(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	t.Cleanup(telemetry.Disable)
	names := []string{
		"montecarlo.samples", "montecarlo.estimates", "montecarlo.pruned_candidates",
		"montecarlo.hour_prices", "montecarlo.bound_bake_samples", "solver.estimates", "solver.memo_hits",
		"montecarlo.basis_replays",
	}
	modes := []struct {
		name  string
		rows  bool // takes the row path: montecarlo totals comparable
		apply func(*Config)
	}{
		{"batch", true, nil},
		{"untaped", false, func(c *Config) { c.UntapedEstimates = true }},
	}
	now := t0.Add(24 * time.Hour)
	for name, mm := range exhaustiveFixtures(t) {
		solve := func(workers int, apply func(*Config)) ([]Result, []int64) {
			before := make([]int64, len(names))
			for i, n := range names {
				before[i] = rec.Counter(n).Value()
			}
			plans, results, err := learnedSolver(t, mm, workers, apply).SolveHourly(now, now)
			if err != nil {
				t.Fatal(err)
			}
			for h, r := range results {
				if !r.Plan.Equal(plans[h]) {
					t.Fatalf("hour %d: plans and results disagree", h)
				}
			}
			for i, n := range names {
				before[i] = rec.Counter(n).Value() - before[i]
			}
			return results, before
		}
		ref, refCtr := solve(1, nil)
		if name == "heavy-tail" && refCtr[2] == 0 {
			t.Error("pruning never fired on the heavy-tail solve")
		}
		if refCtr[3] == 0 {
			t.Errorf("%s: no hour prices counted — the solve did not take the row path", name)
		}
		if refCtr[0] != refCtr[7]*montecarlo.BatchSize {
			t.Errorf("%s: montecarlo.samples = %d, but %d plan-batches were replayed: a row sample must count once per plan", name, refCtr[0], refCtr[7])
		}
		for _, workers := range []int{1, 2, 8} {
			for _, m := range modes {
				if workers == 1 && m.name == "batch" {
					continue // the reference itself
				}
				if workers == 2 && !m.rows {
					continue // Workers 2 only adds a third point to the counter check
				}
				// The untaped heavy-tail solve is 6144 unpruned estimates:
				// run it fanned out only, and not under -short (make race).
				if name == "heavy-tail" && !m.rows && (workers == 1 || testing.Short()) {
					continue
				}
				res, ctr := solve(workers, m.apply)
				t.Run(fmt.Sprintf("%s/workers=%d_mode=%s", name, workers, m.name), func(t *testing.T) {
					for h := range ref {
						if !ref[h].Plan.Equal(res[h].Plan) {
							t.Errorf("hour %d plans diverge: %v vs %v", h, ref[h].Plan, res[h].Plan)
						}
						if *ref[h].Estimate != *res[h].Estimate {
							t.Errorf("hour %d estimates diverge: %+v vs %+v", h, ref[h].Estimate, res[h].Estimate)
						}
					}
					if !m.rows {
						return // the reference path counts (plan, hour) samples, and never prunes
					}
					for i, n := range names {
						if ctr[i] != refCtr[i] {
							t.Errorf("%s: %d, Workers 1 default mode %d", n, ctr[i], refCtr[i])
						}
					}
				})
			}
		}
	}
}

// TestSolveOneMatchesSolveHourlyHour: SolveOne is the exhaustive row solve
// over a one-hour window, so its plan and estimate are SolveHourly's for
// that hour, bit for bit — on both exhaustive fixtures, in the default
// mode ("batch") and on the untaped plan-at-a-time reference path
// ("nobatch").
func TestSolveOneMatchesSolveHourlyHour(t *testing.T) {
	now := t0.Add(24 * time.Hour)
	for name, mm := range exhaustiveFixtures(t) {
		for _, mode := range []string{"batch", "nobatch"} {
			apply := func(c *Config) { c.UntapedEstimates = mode == "nobatch" }
			s := learnedSolver(t, mm, 0, apply)
			_, hourly, err := s.SolveHourly(now, now)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range []int{0, 7, 23} {
				one, err := s.SolveOne(now.Add(time.Duration(h)*time.Hour), now)
				if err != nil {
					t.Fatal(err)
				}
				if !one.Plan.Equal(hourly[h].Plan) || *one.Estimate != *hourly[h].Estimate {
					t.Errorf("%s %s hour %d: SolveOne %v %+v, SolveHourly %v %+v", name, mode, h, one.Plan, one.Estimate, hourly[h].Plan, hourly[h].Estimate)
				}
			}
		}
	}
}
