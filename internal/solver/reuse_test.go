package solver

import (
	"maps"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/montecarlo"
	"caribou/internal/region"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// driftingInputs gives every region its own daily intensity curve on top of
// a fixture's flat intensities, so the 24 hourly searches rank regions
// differently, stop their estimates at different boundaries, and still
// keep proposing many of the same plans.
type driftingInputs struct {
	montecarlo.Inputs
}

func (d *driftingInputs) IntensityAt(r region.ID, at, now time.Time) (float64, error) {
	v, err := d.Inputs.IntensityAt(r, at, now)
	phase := 0
	for _, c := range r {
		phase += int(c)
	}
	swing := float64((at.Hour()*7+phase)%24) / 24 // 0 … 1, region-specific
	return v * (0.25 + 1.5*swing), err
}

// reuseCounters are the totals TestSolveHourlyPlanReuse compares.
var reuseCounters = []string{
	"montecarlo.samples", "montecarlo.estimates", "montecarlo.pruned_candidates",
	"montecarlo.basis_replays", "montecarlo.hour_prices", "montecarlo.tape_samples",
	"solver.estimates", "solver.memo_hits", "solver.basis_hits", "solver.hbss_batches",
	"montecarlo.bound_bake_samples",
}

// TestSolveHourlyPlanReuse pins the per-plan basis memo of an HBSS solve.
// At Workers 1, 2 and 8 the plans, every estimate, every counter total and
// every basis length are identical — whichever hour reaches a plan first
// replays it, and the others wait for it without holding a slot. Per
// solve, montecarlo.samples is exactly the sum over distinct plans of the
// furthest batch boundary any hour needed (the length of the plan's
// basis), strictly less than the per-(plan, hour) total the parent
// replayed; solver.basis_hits is estimates minus distinct plans; a basis is
// exactly as long as its hungriest memoized estimate, since HBSS prunes
// nothing; and no hour bakes a pruning bound. Runs under -race, -count=2 in
// `make race`.
func TestSolveHourlyPlanReuse(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	t.Cleanup(telemetry.Disable)
	now := t0.Add(24 * time.Hour)
	fixtures := []struct {
		name    string
		in      montecarlo.Inputs
		at      time.Time
		maxIter int
		multi   bool // some basis must outgrow its first batch
	}{
		{"image-processing", learned(t, workloads.ImageProcessing(), region.USEast1), now, 0, false},
		{"spread-chain", &driftingInputs{&spreadInputs{chainInputs(t, 5)}}, t0, 0, true},
		{"one-iteration", &driftingInputs{chainInputs(t, 6)}, t0, 1, false},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			type outcome struct {
				results  []Result
				counters []int64
				bases    map[string]int // plan key → samples its basis holds
				wanted   map[string]int // plan key → largest Samples among its memoized estimates
				pairs    int            // Σ over memoized (plan, hour) of Samples
			}
			solve := func(workers int) outcome {
				s, err := New(Config{
					Inputs:        fx.in,
					Estimator:     montecarlo.New(fx.in, carbon.BestCase(), 1),
					Objective:     Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(25)}},
					Seed:          1,
					Workers:       workers,
					MaxIterations: fx.maxIter,
				})
				if err != nil {
					t.Fatal(err)
				}
				if s.searchSpace() <= exhaustiveCutoff {
					t.Fatalf("space %d is exhaustive: no HBSS, no basis memo", s.searchSpace())
				}
				hours := make([]time.Time, 24)
				for h := range hours {
					hours[h] = fx.at.Add(time.Duration(h) * time.Hour)
				}
				before := make([]int64, len(reuseCounters))
				for i, n := range reuseCounters {
					before[i] = rec.Counter(n).Value()
				}
				c, err := s.newSearch(hours, fx.at)
				if err != nil {
					t.Fatal(err)
				}
				defer c.release()
				o := outcome{bases: map[string]int{}, wanted: map[string]int{}}
				if o.results, err = c.solveAllHours(); err != nil {
					t.Fatal(err)
				}
				for _, n := range reuseCounters {
					o.counters = append(o.counters, rec.Counter(n).Value())
				}
				for i := range o.counters {
					o.counters[i] -= before[i]
				}
				for k, p := range c.plans {
					if p.basis != nil {
						o.bases[k] = p.basis.Samples()
					}
					for _, ph := range p.hours {
						if ph.est != nil {
							o.wanted[k] = max(o.wanted[k], ph.est.Samples)
							o.pairs += ph.est.Samples
						}
					}
				}
				if got := c.snap.Sweeps.Replays.Load() * montecarlo.BatchSize; got != o.counters[0] {
					t.Errorf("workers %d: snapshot tallied %d replayed samples, montecarlo.samples grew by %d", workers, got, o.counters[0])
				}
				return o
			}

			ref := solve(1)
			samples, estimates, basisHits := ref.counters[0], ref.counters[6], ref.counters[8]
			held := 0
			for k, n := range ref.bases {
				held += n
				if w := ref.wanted[k]; n != w {
					t.Errorf("plan %x: basis holds %d samples, its hungriest estimate needed %d", k, n, w)
				}
			}
			if samples != int64(held) {
				t.Errorf("montecarlo.samples = %d, the bases hold %d", samples, held)
			}
			if samples != ref.counters[3]*montecarlo.BatchSize {
				t.Errorf("montecarlo.samples = %d, basis_replays = %d batches", samples, ref.counters[3])
			}
			if int(samples) >= ref.pairs {
				t.Errorf("replayed %d samples, the (plan, hour) estimates total %d: no plan was shared across hours", samples, ref.pairs)
			}
			if basisHits != estimates-int64(len(ref.bases)) {
				t.Errorf("solver.basis_hits = %d, want estimates %d − distinct plans %d", basisHits, estimates, len(ref.bases))
			}
			if baked := ref.counters[10]; baked != 0 {
				t.Errorf("montecarlo.bound_bake_samples grew by %d: an HBSS solve reads no pruning bound", baked)
			}
			if fx.multi {
				multi := false
				for _, n := range ref.bases {
					multi = multi || n > montecarlo.BatchSize
				}
				if !multi {
					t.Error("no basis was ever extended past its first batch")
				}
			}

			for _, workers := range []int{2, 8} {
				got := solve(workers)
				for h := range ref.results {
					if !maps.Equal(ref.results[h].Plan, got.results[h].Plan) || *ref.results[h].Estimate != *got.results[h].Estimate {
						t.Errorf("workers %d hour %d: %v %+v, Workers 1 %v %+v", workers, h,
							got.results[h].Plan, got.results[h].Estimate, ref.results[h].Plan, ref.results[h].Estimate)
					}
				}
				for i, n := range reuseCounters {
					if got.counters[i] != ref.counters[i] {
						t.Errorf("workers %d: %s = %d, Workers 1 %d", workers, n, got.counters[i], ref.counters[i])
					}
				}
				if len(got.bases) != len(ref.bases) {
					t.Errorf("workers %d: %d bases, Workers 1 %d", workers, len(got.bases), len(ref.bases))
				}
				for k, n := range ref.bases {
					if got.bases[k] != n {
						t.Errorf("workers %d plan %x: basis holds %d samples, Workers 1 %d", workers, k, got.bases[k], n)
					}
				}
			}
		})
	}
}

// TestSolveHourlyTinySearches: the shapes with the least to share must not
// wedge the basis memo — a one-stage workflow (four plans, exhaustive, no
// memo at all) and one HBSS iteration per hour, at every worker count, in
// the default mode and on the untaped reference path.
func TestSolveHourlyTinySearches(t *testing.T) {
	single := chainInputs(t, 1)
	for _, tc := range []struct {
		name    string
		in      *fakeInputs
		maxIter int
	}{
		{"one-node", single, 0},
		{"one-iteration", chainInputs(t, 6), 1},
	} {
		var ref []Result
		for _, workers := range []int{1, 2, 8} {
			for _, untaped := range []bool{false, true} {
				s, err := New(Config{
					Inputs:           tc.in,
					Estimator:        montecarlo.New(tc.in, carbon.BestCase(), 5),
					Objective:        Objective{Priority: PriorityCarbon, Tolerances: Tolerances{Latency: Tol(50)}},
					Seed:             5,
					Workers:          workers,
					MaxIterations:    tc.maxIter,
					UntapedEstimates: untaped,
				})
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan []Result, 1)
				go func() {
					_, results, err := s.SolveHourly(t0, t0)
					if err != nil {
						t.Error(err)
					}
					done <- results
				}()
				var results []Result
				select {
				case results = <-done:
				case <-time.After(time.Minute):
					t.Fatalf("%s workers=%d untaped=%v: SolveHourly did not return", tc.name, workers, untaped)
				}
				if ref == nil {
					ref = results
					continue
				}
				for h := range ref {
					if !maps.Equal(ref[h].Plan, results[h].Plan) || *ref[h].Estimate != *results[h].Estimate {
						t.Errorf("%s workers=%d untaped=%v hour %d diverges", tc.name, workers, untaped, h)
					}
				}
			}
		}
		if len(ref[0].Plan) != tc.in.d.Len() {
			t.Errorf("%s: plan %v does not cover the workflow", tc.name, ref[0].Plan)
		}
	}
}
