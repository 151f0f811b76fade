package solver

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
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
// montecarlo totals — samples, estimates, pruned and screened candidates,
// plan-batches replayed, hour prices, bound bakes — must also agree with
// Workers 1:
// prune decisions are pure, so neither the worker count nor the chunking it
// implies can move them (`make race` runs this under the race detector,
// with -short).
func TestExhaustiveRowsDeterministicAcrossEvalModes(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	t.Cleanup(telemetry.Disable)
	names := []string{
		"montecarlo.samples", "montecarlo.estimates", "montecarlo.pruned_candidates",
		"montecarlo.hour_prices", "montecarlo.bound_bake_samples", "solver.estimates", "solver.memo_hits",
		"montecarlo.basis_replays", "montecarlo.screened_candidates",
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
				if !maps.Equal(r.Plan, plans[h]) {
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
		if screened := refCtr[8]; (name == "heavy-tail") != (screened == 0) {
			t.Errorf("%s: %d cells screened; the chain's first blocks prove nothing and every RAG plan's proves everything", name, screened)
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
						if !maps.Equal(ref[h].Plan, res[h].Plan) {
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
				if !maps.Equal(one.Plan, hourly[h].Plan) || *one.Estimate != *hourly[h].Estimate {
					t.Errorf("%s %s hour %d: SolveOne %v %+v, SolveHourly %v %+v", name, mode, h, one.Plan, one.Estimate, hourly[h].Plan, hourly[h].Estimate)
				}
			}
		}
	}
}

// TestExhaustiveScreenMatchesUntaped holds the screened, threshold-tightened
// exhaustive solve against the untaped reference — which prices every
// (plan, hour) to completion and knows no threshold — plan for plan and
// estimate field for field, at Workers 1 and 8, with the screen counter
// equal between the two: on a converged workflow (every plan deferred,
// thresholds tightened), on the heavy-tail chain (nothing proven, swept
// immediately), under cost priority (the
// screen compares the block's own cost mean), and on a tie: a one-stage
// workflow whose home and us-west-1 share an intensity, so the two plans'
// carbon means are the same float — both are priced exactly, and home,
// first in the scan, keeps the hour.
func TestExhaustiveScreenMatchesUntaped(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	t.Cleanup(telemetry.Disable)
	screenedCtr, pricesCtr := rec.Counter("montecarlo.screened_candidates"), rec.Counter("montecarlo.hour_prices")
	tie := chainInputs(t, 1)
	tie.intensity = map[region.ID]float64{region.USEast1: 410, region.USWest1: 410, region.USWest2: 500, region.CACentral1: 600}
	rag := learned(t, workloads.RAGDataIngestion(), region.USEast1)
	now := t0.Add(24 * time.Hour)
	for _, tc := range []struct {
		name     string
		in       montecarlo.Inputs
		obj      Objective
		screened bool // the screen must fire (else: must not)
		slow     bool // untaped reference too slow for -short
	}{
		{"converged", rag, Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(25)}}, true, false},
		{"heavy-tail", learnedHeavyTail(t), Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(25)}}, false, true},
		{"cost-priority", rag, Objective{Priority: PriorityCost, Tolerances: Tolerances{Latency: Tol(25)}}, true, false},
		{"tie", tie, Objective{Priority: PriorityCarbon}, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("6144 unpruned reference estimates")
			}
			solve := func(workers int, untaped bool) ([]Result, int64, int64) {
				s, err := New(Config{
					Inputs: tc.in, Estimator: montecarlo.New(tc.in, carbon.BestCase(), 1),
					Objective: tc.obj, Seed: 1, Workers: workers, UntapedEstimates: untaped,
				})
				if err != nil {
					t.Fatal(err)
				}
				if space := s.searchSpace(); space > exhaustiveCutoff {
					t.Fatalf("search space %d is not exhaustive", space)
				}
				sc, pr := screenedCtr.Value(), pricesCtr.Value()
				_, results, err := s.SolveHourly(now, now)
				if err != nil {
					t.Fatal(err)
				}
				return results, screenedCtr.Value() - sc, pricesCtr.Value() - pr
			}
			ref, refScreened, _ := solve(8, true)
			if refScreened != 0 {
				t.Errorf("the untaped reference screened %d cells", refScreened)
			}
			var screened1, prices1 int64
			for _, workers := range []int{1, 8} {
				got, screened, prices := solve(workers, false)
				for h := range ref {
					if !maps.Equal(ref[h].Plan, got[h].Plan) {
						t.Errorf("workers=%d hour %d: plan %v, untaped %v", workers, h, got[h].Plan, ref[h].Plan)
					}
					if *ref[h].Estimate != *got[h].Estimate {
						t.Errorf("workers=%d hour %d: estimate %+v, untaped %+v", workers, h, got[h].Estimate, ref[h].Estimate)
					}
				}
				if (screened > 0) != tc.screened {
					t.Errorf("workers=%d: %d cells screened, want some: %v", workers, screened, tc.screened)
				}
				if workers == 1 {
					screened1, prices1 = screened, prices
				} else if screened != screened1 || prices != prices1 {
					t.Errorf("workers=%d screened %d cells and priced %d samples; workers=1 %d and %d", workers, screened, prices, screened1, prices1)
				}
			}
			if tc.name != "tie" {
				return
			}
			// The tie is real — us-west-1's plan prices to home's very float —
			// and home keeps every hour.
			s := newSolver(t, tie, tc.obj, region.Constraint{})
			c, err := s.newSearch([]time.Time{now}, now)
			if err != nil {
				t.Fatal(err)
			}
			defer c.release()
			west, ok := c.snap.RegionIndex(region.USWest1)
			if !ok {
				t.Fatal("us-west-1 not interned")
			}
			homeEst, err := c.estimate(c.snap.HomeAssign(), 0)
			if err != nil {
				t.Fatal(err)
			}
			westEst, err := c.estimate([]int{west}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if westEst.CarbonMean != homeEst.CarbonMean {
				t.Fatalf("fixture does not tie: us-west-1 %v, home %v", westEst.CarbonMean, homeEst.CarbonMean)
			}
			for h, r := range ref {
				if r.Plan[dag.NodeID("a")] != region.USEast1 {
					t.Errorf("hour %d: the tie went to %v, not to home", h, r.Plan)
				}
			}
		})
	}
}
