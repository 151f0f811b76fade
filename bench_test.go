package caribou

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one Benchmark per exhibit, reduced-scale configurations so a
// full -bench=. pass completes in minutes) plus component and ablation
// micro-benchmarks for the design choices called out in DESIGN.md. Run the
// full-scale experiments with cmd/caribou-eval.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/core"
	"caribou/internal/eval"
	"caribou/internal/executor"
	"caribou/internal/forecast"
	"caribou/internal/kvstore"
	"caribou/internal/metrics"
	"caribou/internal/montecarlo"
	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/pricing"
	"caribou/internal/pubsub"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/solver"
	"caribou/internal/telemetry"
	"caribou/internal/trace"
	"caribou/internal/workloads"
)

// quickWLs is the reduced workload set used by the macro benches.
func quickWLs() []*workloads.Workload {
	return []*workloads.Workload{workloads.Text2SpeechCensoring(), workloads.ImageProcessing()}
}

// --- One benchmark per table and figure ---

func BenchmarkFig2CarbonTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := eval.Fig2(eval.Fig2Options{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 4 {
			b.Fatalf("want 4 regions, got %d", len(series))
		}
	}
}

func BenchmarkTable1Workflows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := eval.Table1()
		if len(rows) != 5 {
			b.Fatalf("want 5 benchmarks, got %d", len(rows))
		}
	}
}

func BenchmarkFig7GeoShifting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Fig7(eval.Fig7Options{
			Workloads: quickWLs(),
			Classes:   []workloads.InputClass{workloads.Small},
			PerDay:    96,
			Seed:      int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		eval.PrintFig7(io.Discard, rows)
	}
}

// BenchmarkFig7Serial and BenchmarkFig7Parallel bracket the worker-pool
// speedup on the same reduced-scale Fig 7. On multi-core hosts the
// parallel variant approaches serial/(cores) wall time; on a single-core
// host the two coincide (the pool adds only scheduling noise). Fresh pools
// per iteration keep the memo cold so only concurrency is measured.
func BenchmarkFig7Serial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Fig7(eval.Fig7Options{
			Workloads: quickWLs(),
			Classes:   []workloads.InputClass{workloads.Small},
			PerDay:    96,
			Seed:      int64(i + 1),
			Pool:      eval.NewPool(1),
		})
		if err != nil {
			b.Fatal(err)
		}
		eval.PrintFig7(io.Discard, rows)
	}
}

func BenchmarkFig7Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Fig7(eval.Fig7Options{
			Workloads: quickWLs(),
			Classes:   []workloads.InputClass{workloads.Small},
			PerDay:    96,
			Seed:      int64(i + 1),
			Pool:      eval.NewPool(0), // GOMAXPROCS workers
		})
		if err != nil {
			b.Fatal(err)
		}
		eval.PrintFig7(io.Discard, rows)
	}
}

// BenchmarkPoolMemoSweep measures the cross-figure memo: Figs 7-10 at
// reduced scale share one pool, so the coarse home baselines and the
// best-case fine(all) runs execute once and every later figure re-accounts
// them. Reports the memo hit rate alongside wall time.
func BenchmarkPoolMemoSweep(b *testing.B) {
	var hitRate float64
	for i := 0; i < b.N; i++ {
		pool := eval.NewPool(0)
		seed := int64(i + 1)
		wls := quickWLs()
		classes := []workloads.InputClass{workloads.Small}
		if _, err := eval.Fig7(eval.Fig7Options{Workloads: wls, Classes: classes, PerDay: 96, Seed: seed, Pool: pool}); err != nil {
			b.Fatal(err)
		}
		if _, err := eval.Fig8(eval.Fig8Options{Workloads: wls, Classes: classes, PerDay: 96, Seed: seed, Pool: pool}); err != nil {
			b.Fatal(err)
		}
		if _, err := eval.Fig9(eval.Fig9Options{Workloads: wls, Classes: classes, Factors: []float64{1e-4, 1e-3, 1e-2}, PerDay: 96, Seed: seed, Pool: pool}); err != nil {
			b.Fatal(err)
		}
		if _, err := eval.Fig10(eval.Fig10Options{Workloads: wls, Tolerances: []float64{0, 5, 10}, PerDay: 96, Seed: seed, Pool: pool}); err != nil {
			b.Fatal(err)
		}
		st := pool.Stats()
		hitRate = float64(st.Hits) / float64(st.Submitted)
	}
	b.ReportMetric(hitRate*100, "memo-hit-%")
}

func BenchmarkFig8ComputeTxRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := eval.Fig8(eval.Fig8Options{
			Workloads: quickWLs(),
			Classes:   []workloads.InputClass{workloads.Small},
			PerDay:    96,
			Seed:      int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		eval.PrintFig8(io.Discard, points)
	}
}

func BenchmarkFig9EnergyFactorSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := eval.Fig9(eval.Fig9Options{
			Workloads: quickWLs(),
			Classes:   []workloads.InputClass{workloads.Small},
			Factors:   []float64{1e-4, 1e-3, 1e-2},
			PerDay:    96,
			Seed:      int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		eval.PrintFig9(io.Discard, points)
	}
}

func BenchmarkFig10ToleranceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := eval.Fig10(eval.Fig10Options{
			Tolerances: []float64{0, 5, 10},
			PerDay:     96,
			Seed:       int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		eval.PrintFig10(io.Discard, points)
	}
}

func BenchmarkFig11AdaptiveWeek(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := eval.Fig11(eval.Fig11Options{
			Days:   3,
			PerDay: 250,
			Seed:   int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		eval.PrintFig11(io.Discard, results)
	}
}

func BenchmarkFig12OrchestratorOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Fig12(eval.Fig12Options{
			Workloads:   quickWLs(),
			Invocations: 40,
			Seed:        int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		eval.PrintFig12(io.Discard, rows)
	}
}

func BenchmarkFig13SolveFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, bb, err := eval.Fig13(eval.Fig13Options{
			Frequencies: []int{1, 7},
			PerDay:      300,
			Days:        7,
			Seed:        int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		eval.PrintFig13(io.Discard, a, bb)
	}
}

func BenchmarkTable2Taxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eval.PrintTable2(io.Discard, eval.Table2())
	}
}

// --- Component micro-benchmarks ---

var benchStart = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

// benchInputs assembles a Metric Manager with a day of learned data for
// the Text2Speech workflow.
func benchInputs(b *testing.B) (*metrics.Manager, *montecarlo.Estimator) {
	return benchInputsFor(b, workloads.Text2SpeechCensoring())
}

// benchInputsFor is benchInputs for an arbitrary workload.
func benchInputsFor(b *testing.B, wl *workloads.Workload) (*metrics.Manager, *montecarlo.Estimator) {
	return benchInputsHome(b, wl, region.USEast1)
}

// benchInputsHome is benchInputs for an arbitrary workload and home
// region.
func benchInputsHome(b *testing.B, wl *workloads.Workload, home region.ID) (*metrics.Manager, *montecarlo.Estimator) {
	b.Helper()
	cat, err := region.NorthAmerica().Subset(region.EvaluationFour())
	if err != nil {
		b.Fatal(err)
	}
	src, err := carbon.NewSyntheticSource(1, benchStart.Add(-8*24*time.Hour), benchStart.Add(2*24*time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	net := netmodel.New(cat)
	mm := metrics.New(wl.DAG, home, cat, net, src, pricing.DefaultBook())

	sched := simclock.New(benchStart)
	p, err := platform.New(platform.Options{Sched: sched, Catalogue: cat, Net: net, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := executor.New(executor.Options{
		Platform: p, Workload: wl, Home: home, Seed: 1,
		OnComplete: func(r *platform.InvocationRecord) { mm.Ingest(r) },
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.DeployHome(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		eng.InvokeAt(benchStart.Add(time.Duration(i)*5*time.Minute), workloads.Small, nil)
	}
	sched.Run()
	if err := mm.RefreshForecasts(benchStart.Add(24 * time.Hour)); err != nil {
		b.Fatal(err)
	}
	return mm, montecarlo.New(mm, carbon.BestCase(), 1)
}

func newBenchSolver(b *testing.B, mm *metrics.Manager, est *montecarlo.Estimator) *solver.Solver {
	return newBenchSolverWorkers(b, mm, est, 0)
}

func newBenchSolverWorkers(b *testing.B, mm *metrics.Manager, est *montecarlo.Estimator, workers int) *solver.Solver {
	b.Helper()
	s, err := solver.New(solver.Config{
		Inputs: mm, Estimator: est,
		Objective: solver.Objective{
			Priority:   solver.PriorityCarbon,
			Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
		},
		Seed:    1,
		Workers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSolverHBSS measures one single-hour HBSS solve — the §9.7 unit
// whose 24x repetition forms a full DP generation.
func BenchmarkSolverHBSS(b *testing.B) {
	mm, est := benchInputs(b)
	s := newBenchSolver(b, mm, est)
	at := benchStart.Add(25 * time.Hour)
	now := benchStart.Add(24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveOne(at, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverCoarse is the O(|R|) single-region ablation baseline.
func BenchmarkSolverCoarse(b *testing.B) {
	mm, est := benchInputs(b)
	s := newBenchSolver(b, mm, est)
	at := benchStart.Add(25 * time.Hour)
	now := benchStart.Add(24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveCoarse(at, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver24Hourly is the full daily plan generation (24 solves),
// the unit the paper reports at ~276 s with its Go Monte Carlo engine.
func BenchmarkSolver24Hourly(b *testing.B) {
	mm, est := benchInputs(b)
	s := newBenchSolver(b, mm, est)
	now := benchStart.Add(24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveHourly(now, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver24HourlyUntaped is the same daily plan generation with
// sample tapes disabled: every plan evaluation re-draws its Monte Carlo
// samples from scratch. The gap to BenchmarkSolver24Hourly is the
// common-random-number speedup (results are bit-identical either way; see
// the solver tape parity tests).
func BenchmarkSolver24HourlyUntaped(b *testing.B) {
	mm, est := benchInputs(b)
	s, err := solver.New(solver.Config{
		Inputs: mm, Estimator: est,
		Objective: solver.Objective{
			Priority:   solver.PriorityCarbon,
			Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
		},
		Seed:             1,
		UntapedEstimates: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	now := benchStart.Add(24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveHourly(now, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver24HourlyHeavyTail is the daily plan generation on the
// synthetic heavy-tail workload (not in Table 1), homed in the clean
// ca-central-1 grid: per-draw durations spread over a ~2.5x coefficient
// of variation, so Monte Carlo lanes are still unconverged at batch
// boundaries, and candidates shifting the dominant stages into the
// ~10x-dirtier US grids accumulate sample sums whose exact lower bound
// overshoots the home incumbent — the solver's bound-based pruning
// abandons them mid-evaluation. Reports pruned lanes per solve alongside
// wall time; the pruned/op metric must be nonzero or the pruning path
// has regressed to dead code on realistic inputs.
func BenchmarkSolver24HourlyHeavyTail(b *testing.B) {
	rec := telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	mm, est := benchInputsHome(b, workloads.HeavyTailAnalytics(), region.CACentral1)
	s := newBenchSolver(b, mm, est)
	now := benchStart.Add(24 * time.Hour)
	pruned := rec.Counter("montecarlo.pruned_candidates")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveHourly(now, now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pruned.Value())/float64(b.N), "pruned/op")
}

// BenchmarkSolveExhaustiveDay is the daily plan generation on an exhaustive
// space whose estimates all converge at the first boundary — Text2Speech
// over {us-east-1, ca-central-1}, 2⁶ = 64 plans × 24 hours: the regime the
// row screen serves. Every plan's first block proves its stop at every
// hour, so the solve replays 64 batches, screens 1 536 cells and prices
// only the contenders (priced/op, next to screened/op; the 24 home cells
// are priced before the enumeration).
func BenchmarkSolveExhaustiveDay(b *testing.B) {
	rec := telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	mm, est := benchInputs(b)
	s, err := solver.New(solver.Config{
		Inputs: mm, Estimator: est,
		Objective: solver.Objective{Priority: solver.PriorityCarbon, Tolerances: solver.Tolerances{Latency: solver.Tol(25)}},
		Regions:   []region.ID{region.USEast1, region.CACentral1},
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	now := benchStart.Add(24 * time.Hour)
	screened, prices := rec.Counter("montecarlo.screened_candidates"), rec.Counter("montecarlo.hour_prices")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveHourly(now, now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(screened.Value())/float64(b.N), "screened/op")
	b.ReportMetric(float64(prices.Value())/montecarlo.BatchSize/float64(b.N), "priced/op")
}

// BenchmarkScreenStats measures what deferring a plan costs: one fresh
// Text2Speech basis through a parking row sweep — its first batch replayed,
// the per-slot sums and deviation norms of that block (two passes), the 24
// hour screens, the block's latency and cost p95, and the move to the
// solve's arena; nothing priced. screen-ns/op is everything but the replay,
// by the snapshot's own section clock; read the rest against
// BenchmarkReplayBasis/lanes=1, and the whole against 24 ×
// BenchmarkPriceHour/one-more-hour, which a deferred plan no longer pays.
func BenchmarkScreenStats(b *testing.B) {
	telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	snap, home := benchSnapshotAssign(b)
	assigns := batchBenchAssigns(snap, home, 1)
	if _, err := snap.EstimateBatch(assigns, 0, nil); err != nil { // compile the tape
		b.Fatal(err)
	}
	keep := montecarlo.NewBasisArena()
	defer keep.Release()
	park := &montecarlo.RowPrune{Park: keep}
	before := snap.Sweeps.ScreenNS.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bases, arena := benchBases(b, snap, assigns)
		if _, err := snap.EstimateBases(bases, 0, snap.NumHours(), park, nil); err != nil || bases[0].Parked() == nil {
			b.Fatalf("first block proved nothing (err %v)", err)
		}
		arena.Release()
		if i%64 == 63 {
			keep.Release()
		}
	}
	b.ReportMetric(float64(snap.Sweeps.ScreenNS.Load()-before)/float64(b.N), "screen-ns/op")
}

// benchSnapshotAssign compiles a 24-hour snapshot of the learned inputs
// and returns it with the home assignment, for the estimate micro-pair.
func benchSnapshotAssign(b *testing.B) (*montecarlo.Snapshot, []int) {
	b.Helper()
	_, est := benchInputs(b)
	now := benchStart.Add(24 * time.Hour)
	hours := make([]time.Time, 24)
	for h := range hours {
		hours[h] = now.Add(time.Duration(h) * time.Hour)
	}
	snap, err := est.Compile(nil, hours, now)
	if err != nil {
		b.Fatal(err)
	}
	return snap, snap.HomeAssign()
}

// BenchmarkSnapshotEstimateTaped measures the steady-state cost of one
// plan evaluation replaying an already-compiled sample tape; the warm-up
// call pays the one-time tape compile so the loop times replay only.
func BenchmarkSnapshotEstimateTaped(b *testing.B) {
	snap, assign := benchSnapshotAssign(b)
	if _, err := snap.Estimate(assign, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.Estimate(assign, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEstimateUntaped is the reference draw-per-sample
// evaluation on the same snapshot — the per-estimate cost the tape
// amortizes away. The warm-up call mirrors the taped bench so the loop
// measures the steady state (scratch and accumulator pools populated),
// not first-call allocation.
func BenchmarkSnapshotEstimateUntaped(b *testing.B) {
	snap, assign := benchSnapshotAssign(b)
	if _, err := snap.EstimateUntaped(assign, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.EstimateUntaped(assign, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// batchBenchAssigns perturbs the home assignment into k distinct
// candidate plans — the shape of one HBSS evaluation round.
func batchBenchAssigns(snap *montecarlo.Snapshot, home []int, k int) [][]int {
	assigns := make([][]int, k)
	for i := range assigns {
		a := append([]int(nil), home...)
		a[i%len(a)] = (a[i%len(a)] + 1 + i/len(a)) % snap.Regions()
		assigns[i] = a
	}
	return assigns
}

// BenchmarkSnapshotEstimateBatch measures one shared sweep over 16
// candidate plans (the HBSS round size): per-plan cost should land well
// under BenchmarkSnapshotEstimateTaped because plan-independent column
// loads are fetched once and reused across all lanes.
func BenchmarkSnapshotEstimateBatch(b *testing.B) {
	snap, home := benchSnapshotAssign(b)
	assigns := batchBenchAssigns(snap, home, 16)
	if _, err := snap.EstimateBatch(assigns, 0, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.EstimateBatch(assigns, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEstimateRows measures one row sweep on Text2Speech: the
// same 16 plans replayed once and priced at all 24 hours — 24 × 16
// estimates, to be read against 24 × BenchmarkSnapshotEstimateBatch and
// against BenchmarkReplayBasis/lanes=16 + 16 × BenchmarkPriceHour/all-24.
func BenchmarkSnapshotEstimateRows(b *testing.B) {
	snap, home := benchSnapshotAssign(b)
	assigns := batchBenchAssigns(snap, home, 16)
	sweep := func() {
		bases, arena := benchBases(b, snap, assigns)
		defer arena.Release()
		if _, err := snap.EstimateBases(bases, 0, snap.NumHours(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	sweep() // compiles the tape
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// benchBases builds k fresh bases over a new arena for the first k plans of
// batchBenchAssigns.
func benchBases(b *testing.B, snap *montecarlo.Snapshot, assigns [][]int) ([]*montecarlo.Basis, *montecarlo.BasisArena) {
	b.Helper()
	arena := montecarlo.NewBasisArena()
	bases := make([]*montecarlo.Basis, len(assigns))
	for i, a := range assigns {
		var err error
		if bases[i], err = snap.NewBasis(arena, a); err != nil {
			b.Fatal(err)
		}
	}
	return bases, arena
}

// BenchmarkReplayBasis measures what the first hour to want a plan pays:
// K fresh Text2Speech bases replayed through one shared sweep (one batch —
// every lane converges at the first boundary) and priced at one hour.
// Subtract K × BenchmarkPriceHour/one-more-hour for the replay alone; the
// per-lane cost at 8 and 16 lanes against 1 is what sharing a sweep buys.
func BenchmarkReplayBasis(b *testing.B) {
	snap, home := benchSnapshotAssign(b)
	all := batchBenchAssigns(snap, home, 16)
	if _, err := snap.EstimateBatch(all, 0, nil); err != nil { // compile the tape
		b.Fatal(err)
	}
	for _, k := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("lanes=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bases, arena := benchBases(b, snap, all[:k])
				if _, err := snap.EstimateBases(bases, 0, 1, nil, nil); err != nil {
					b.Fatal(err)
				}
				arena.Release()
			}
		})
	}
}

// BenchmarkPriceHour measures what every later hour pays: one more hour
// priced from a 200-sample Text2Speech basis (the HBSS memo hit that needs
// no replay), and all 24 hours priced from the longest basis the heavy-tail
// fixture produces (1 200 samples: a row of the exhaustive sweep, its
// pricing half only; the length is reported as samples/op).
func BenchmarkPriceHour(b *testing.B) {
	b.Run("one-more-hour", func(b *testing.B) {
		snap, home := benchSnapshotAssign(b)
		bases, arena := benchBases(b, snap, batchBenchAssigns(snap, home, 1))
		defer arena.Release()
		if _, err := snap.EstimateBases(bases, 0, 1, nil, nil); err != nil {
			b.Fatal(err)
		}
		if n := bases[0].Samples(); n != montecarlo.BatchSize {
			b.Fatalf("basis holds %d samples, want one batch", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := snap.EstimateBases(bases, 1+i%23, 1, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("all-24-hours", func(b *testing.B) {
		_, est := benchInputsHome(b, workloads.HeavyTailAnalytics(), region.CACentral1)
		now := benchStart.Add(24 * time.Hour)
		hours := make([]time.Time, 24)
		for h := range hours {
			hours[h] = now.Add(time.Duration(h) * time.Hour)
		}
		snap, err := est.Compile(nil, hours, now)
		if err != nil {
			b.Fatal(err)
		}
		// Of the 4⁴ plans, the one whose hungriest hour runs furthest down the
		// tape: priced once at every hour, a basis is as long as that hour
		// needed.
		var bases []*montecarlo.Basis
		for code := 0; code < 256; code++ {
			a := make([]int, snap.NumNodes())
			for i := range a {
				a[i] = code >> (2 * i) % snap.Regions()
			}
			cand, arena := benchBases(b, snap, [][]int{a})
			defer arena.Release()
			for h := range hours {
				if _, err := snap.EstimateBases(cand, h, 1, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			if bases == nil || cand[0].Samples() > bases[0].Samples() {
				bases = cand
			}
		}
		if n := bases[0].Samples(); n < 3*montecarlo.BatchSize {
			b.Fatalf("longest basis holds %d samples, want several batches", n)
		}
		b.ReportMetric(float64(bases[0].Samples()), "samples/op")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for h := range hours {
				if _, err := snap.EstimateBases(bases, h, 1, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSolveHourlySerial pins the daily solve to one worker — the
// baseline the parallel bench is compared against (the two must produce
// identical plans; see the solver determinism tests).
func BenchmarkSolveHourlySerial(b *testing.B) {
	mm, est := benchInputs(b)
	s := newBenchSolverWorkers(b, mm, est, 1)
	now := benchStart.Add(24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveHourly(now, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveHourlyParallel runs the same solve with the default
// worker pool (GOMAXPROCS): hourly solves and HBSS rounds fan out over
// the shared evaluation semaphore.
func BenchmarkSolveHourlyParallel(b *testing.B) {
	mm, est := benchInputs(b)
	s := newBenchSolverWorkers(b, mm, est, 0)
	now := benchStart.Add(24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveHourly(now, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotCompile measures flattening the Inputs interface into
// a 24-hour evaluation snapshot — the fixed cost a solve pays once before
// the (much larger) search reads only dense slices.
func BenchmarkSnapshotCompile(b *testing.B) {
	_, est := benchInputs(b)
	now := benchStart.Add(24 * time.Hour)
	hours := make([]time.Time, 24)
	for h := range hours {
		hours[h] = now.Add(time.Duration(h) * time.Hour)
	}
	cat, err := region.NorthAmerica().Subset(region.EvaluationFour())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Compile(cat.IDs(), hours, now); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorInvocation(b *testing.B) {
	wl := workloads.Text2SpeechCensoring()
	cat := region.NorthAmerica()
	sched := simclock.New(benchStart)
	p, err := platform.New(platform.Options{Sched: sched, Catalogue: cat, Net: netmodel.New(cat), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	eng, err := executor.New(executor.Options{
		Platform: p, Workload: wl, Home: region.USEast1, Seed: 1,
		OnComplete: func(*platform.InvocationRecord) { done++ },
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.DeployHome(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.InvokeAt(sched.Now().Add(time.Minute), workloads.Small, nil)
		sched.Run()
	}
	if done != b.N {
		b.Fatalf("completed %d of %d", done, b.N)
	}
}

// BenchmarkSimulatedDay is one coarse, home-only day of Text2Speech at 96
// invocations through core.Env — platform, executor, metric ingest and
// record keeping with no solver in the loop: the simulator's share of an
// eval.Run, the unit the harness reports as eval.run_coarse_ms.
func BenchmarkSimulatedDay(b *testing.B) {
	const perDay = 96
	wl := workloads.Text2SpeechCensoring()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := core.NewEnv(core.EnvConfig{Seed: 1, Start: benchStart, End: benchStart.Add(24 * time.Hour), Regions: region.EvaluationFour()})
		if err != nil {
			b.Fatal(err)
		}
		app, err := env.NewApp(core.AppConfig{Workload: wl, Home: region.USEast1, Mode: executor.ModeCaribou, Seed: 1, BenchFraction: -1})
		if err != nil {
			b.Fatal(err)
		}
		app.ScheduleUniform(benchStart, perDay, 24*time.Hour/perDay, workloads.Small)
		env.Run()
		if len(app.Records) != perDay {
			b.Fatalf("completed %d of %d invocations", len(app.Records), perDay)
		}
	}
}

func BenchmarkHoltWintersFit(b *testing.B) {
	src, err := carbon.NewSyntheticSource(1, benchStart.Add(-8*24*time.Hour), benchStart)
	if err != nil {
		b.Fatal(err)
	}
	series, err := src.Hourly("US-CAL-CISO", benchStart.Add(-7*24*time.Hour), benchStart)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forecast.Fit(series, 24); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKVStoreUpdate(b *testing.B) {
	kv := kvstore.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.Update("sync/bench", func(cur []byte, exists bool) ([]byte, bool) {
			return append(cur[:0], 'x'), true
		})
	}
}

func BenchmarkPubSubRoundTrip(b *testing.B) {
	sched := simclock.New(benchStart)
	broker := pubsub.NewBroker(sched, nil, pubsub.Config{}, simclock.NewRand(1))
	got := 0
	broker.Subscribe("t", func(pubsub.Message) error { got++; return nil })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := broker.Publish("t", []byte("x")); err != nil {
			b.Fatal(err)
		}
		sched.Run()
	}
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(trace.AzureP5(), benchStart, benchStart.Add(24*time.Hour), int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCarbonAccounting(b *testing.B) {
	mm, _ := benchInputs(b)
	recs := mm.Records()
	if len(recs) == 0 {
		b.Fatal("no records")
	}
	cat, err := region.NorthAmerica().Subset(region.EvaluationFour())
	if err != nil {
		b.Fatal(err)
	}
	src, err := carbon.NewSyntheticSource(1, benchStart.Add(-8*24*time.Hour), benchStart.Add(2*24*time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	tx := carbon.WorstCase()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		if _, _, err := r.CarbonGrams(src, cat, tx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCachedResult runs one quick fig7-sized fine run (Text2Speech, small,
// 96 invocations a day) and returns it with its cache payload — the unit a
// warm sweep decodes and re-accounts 54 times per pass.
func benchCachedResult(b *testing.B) (eval.RunConfig, *eval.Result, []byte) {
	b.Helper()
	cfg := eval.RunConfig{Workload: workloads.Text2SpeechCensoring(), Class: workloads.Small, PerDay: 96, Seed: 1}
	res, err := eval.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	payload, err := eval.EncodeResult(cfg, res)
	if err != nil {
		b.Fatal(err)
	}
	return cfg, res, payload
}

// BenchmarkDecodeResult times the durable cache's read path after the
// store: payload bytes to a Result ready to summarize.
func BenchmarkDecodeResult(b *testing.B) {
	cfg, _, payload := benchCachedResult(b)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.DecodeResult(cfg, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummarize times one accounting pass over a decoded result.
func BenchmarkSummarize(b *testing.B) {
	cfg, _, payload := benchCachedResult(b)
	res, err := eval.DecodeResult(cfg, payload)
	if err != nil {
		b.Fatal(err)
	}
	tx := carbon.WorstCase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Summarize(tx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension and ablation benches ---

func BenchmarkExtGlobalShifting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.ExtGlobal(nil, quickWLs(), int64(i+1), 96)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkExtTemporalShifting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.ExtTemporal(nil, quickWLs(), int64(i+1), 96)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkAblationSolverStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.AblationSolver(nil, int64(i+1), 96)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkAblationForecastStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.AblationForecast(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkMarginalCarbonSignal(b *testing.B) {
	src, err := carbon.NewSyntheticSource(1, benchStart, benchStart.Add(24*time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	mci := carbon.NewMarginalSource(src, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mci.At("US-MIDA-PJM", benchStart.Add(time.Duration(i%24)*time.Hour)); err != nil {
			b.Fatal(err)
		}
	}
}
