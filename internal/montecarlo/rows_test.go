package montecarlo_test

import (
	"math"
	"math/rand"
	"sync"
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

var rowsT0 = time.Date(2023, 10, 4, 0, 0, 0, 0, time.UTC)

// rowFixture is one workflow learned at one home region and compiled for a
// 24-hour window, with the home row's single-hour estimates.
type rowFixture struct {
	name string
	snap *montecarlo.Snapshot
	home []*montecarlo.Estimate
}

// learnSnapshot learns wl homed at home from 200 simulated invocations on
// the day rowsT0 and compiles the next day's 24 hours over the
// evaluation-four regions.
func learnSnapshot(tb testing.TB, wl *workloads.Workload, home region.ID) *montecarlo.Snapshot {
	tb.Helper()
	cat, err := region.NorthAmerica().Subset(region.EvaluationFour())
	if err != nil {
		tb.Fatal(err)
	}
	src, err := carbon.NewSyntheticSource(1, rowsT0.Add(-8*24*time.Hour), rowsT0.Add(2*24*time.Hour))
	if err != nil {
		tb.Fatal(err)
	}
	net := netmodel.New(cat)
	mm := metrics.New(wl.DAG, home, cat, net, src, pricing.DefaultBook())
	sched := simclock.New(rowsT0)
	p, err := platform.New(platform.Options{Sched: sched, Catalogue: cat, Net: net, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := executor.New(executor.Options{
		Platform: p, Workload: wl, Home: home, Seed: 1,
		OnComplete: func(r *platform.InvocationRecord) { mm.Ingest(r) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.DeployHome(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		eng.InvokeAt(rowsT0.Add(time.Duration(i)*5*time.Minute), workloads.Small, nil)
	}
	sched.Run()
	now := rowsT0.Add(24 * time.Hour)
	if err := mm.RefreshForecasts(now); err != nil {
		tb.Fatal(err)
	}
	hours := make([]time.Time, 24)
	for h := range hours {
		hours[h] = now.Add(time.Duration(h) * time.Hour)
	}
	snap, err := montecarlo.New(mm, carbon.BestCase(), 1).Compile(nil, hours, now)
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

var (
	rowFixturesOnce sync.Once
	rowFixturesAll  []*rowFixture
)

// rowFixtures is the five Table-1 workflows plus the heavy-tail chain, each
// homed in us-east-1 and in ca-central-1. Built once per process: the
// property test and the fuzz target share them.
func rowFixtures(tb testing.TB) []*rowFixture {
	tb.Helper()
	rowFixturesOnce.Do(func() {
		wls := append(workloads.All(), workloads.HeavyTailAnalytics())
		for _, wl := range wls {
			for _, home := range []region.ID{region.USEast1, region.CACentral1} {
				f := &rowFixture{name: wl.Name + "@" + string(home), snap: learnSnapshot(tb, wl, home)}
				for h := 0; h < f.snap.NumHours(); h++ {
					est, err := f.snap.Estimate(f.snap.HomeAssign(), h)
					if err != nil {
						tb.Fatal(err)
					}
					f.home = append(f.home, est)
				}
				rowFixturesAll = append(rowFixturesAll, f)
			}
		}
	})
	return rowFixturesAll
}

func metricMean(e *montecarlo.Estimate, m montecarlo.BatchMetric) float64 {
	switch m {
	case montecarlo.BatchCostMean:
		return e.CostMean
	case montecarlo.BatchLatencyMean:
		return e.LatencyMean
	}
	return e.CarbonMean
}

// checkRows is the row contract. Without thresholds every entry equals
// Estimate(a, h) field for field. With thresholds at scale × the home
// row's metric (horizon: the home row's sample count), every surviving
// entry is still bit-identical and every pruned entry's unpruned metric
// mean really exceeds its threshold — whichever clause closed it: the
// first-boundary screen, which never priced the cell, or the bounds at a
// later boundary. It reports how many entries came back nil, how many of
// those the screen closed, and whether some row stopped at different
// boundaries at different hours.
func checkRows(tb testing.TB, f *rowFixture, assigns [][]int, metric montecarlo.BatchMetric, scale float64) (pruned, screened int, ragged bool) {
	tb.Helper()
	H := f.snap.NumHours()
	want := make([][]*montecarlo.Estimate, len(assigns))
	for i, a := range assigns {
		want[i] = make([]*montecarlo.Estimate, H)
		for h := range want[i] {
			var err error
			if want[i][h], err = f.snap.Estimate(a, h); err != nil {
				tb.Fatal(err)
			}
			if want[i][h].Samples != want[i][0].Samples {
				ragged = true
			}
		}
	}
	before := f.snap.Sweeps.Screened.Load()
	got, err := f.snap.EstimateRows(assigns, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range assigns {
		for h := 0; h < H; h++ {
			if got[i][h] == nil || *got[i][h] != *want[i][h] {
				tb.Fatalf("%s plan %v hour %d: row %+v, single-hour %+v", f.name, assigns[i], h, got[i][h], want[i][h])
			}
		}
	}
	if n := f.snap.Sweeps.Screened.Load() - before; n != 0 {
		tb.Fatalf("%s: %d cells screened by a sweep without thresholds", f.name, n)
	}
	if math.IsInf(scale, 1) {
		return 0, 0, ragged
	}
	prune := &montecarlo.RowPrune{Metric: metric, Threshold: make([]float64, H), Horizon: make([]int, H)}
	for h := range prune.Threshold {
		prune.Threshold[h] = scale * metricMean(f.home[h], metric)
		prune.Horizon[h] = f.home[h].Samples
	}
	if got, err = f.snap.EstimateRows(assigns, prune); err != nil {
		tb.Fatal(err)
	}
	screened = int(f.snap.Sweeps.Screened.Load() - before)
	for i := range assigns {
		for h := 0; h < H; h++ {
			switch {
			case got[i][h] == nil:
				pruned++
				if m := metricMean(want[i][h], metric); !(m > prune.Threshold[h]) {
					tb.Fatalf("%s plan %v hour %d: pruned at threshold %g, but its metric mean is %g", f.name, assigns[i], h, prune.Threshold[h], m)
				}
			case *got[i][h] != *want[i][h]:
				tb.Fatalf("%s plan %v hour %d under thresholds: row %+v, single-hour %+v", f.name, assigns[i], h, got[i][h], want[i][h])
			}
		}
	}
	if screened > pruned {
		tb.Fatalf("%s: %d cells screened but only %d came back nil", f.name, screened, pruned)
	}
	return pruned, screened, ragged
}

// TestEstimateRowsMatchEstimate checks the row contract on every fixture:
// the home plan plus 12 seeded random plans in one multi-lane sweep, for
// each pruning metric, with thresholds just above the home row (the
// exhaustive solver's) and well below it.
func TestEstimateRowsMatchEstimate(t *testing.T) {
	var pruned, screened, multiBatch int
	ragged := false
	for _, f := range rowFixtures(t) {
		rng := rand.New(rand.NewSource(7))
		assigns := [][]int{f.snap.HomeAssign()}
		for len(assigns) < 13 {
			a := make([]int, f.snap.NumNodes())
			for i := range a {
				a[i] = rng.Intn(f.snap.Regions())
			}
			assigns = append(assigns, a)
		}
		for _, e := range f.home {
			if e.Samples > montecarlo.BatchSize {
				multiBatch++
			}
		}
		for _, metric := range []montecarlo.BatchMetric{montecarlo.BatchCarbonMean, montecarlo.BatchCostMean, montecarlo.BatchLatencyMean} {
			for _, scale := range []float64{1 + 1e-9, 0.5} {
				p, sc, r := checkRows(t, f, assigns, metric, scale)
				pruned += p
				screened += sc
				ragged = ragged || r
			}
		}
	}
	if screened == 0 || pruned == screened {
		t.Errorf("%d (plan, hour) cells came back nil, %d of them screened: the threshold half of the contract must see both the screen and the bounds fire", pruned, screened)
	}
	if multiBatch == 0 {
		t.Error("no fixture needs more than one batch: multi-batch lanes are not covered")
	}
	if !ragged {
		t.Error("no plan stopped at different boundaries at different hours: per-hour stopping is not covered")
	}
}

// TestEstimateRowsPruneIsPure pins the prune decision as a function of
// (plan, hour, threshold, horizon): the same plans swept alone, in one
// chunk, in reverse order, and on a snapshot whose tape other estimates
// already extended all the way give the same nil pattern and the same
// pruned_candidates and screened_candidates counts, and swept over the
// window's last twelve hours the same nil pattern there — on the heavy-tail
// chain, where only the bounds fire, and on Text2Speech, where every nil
// cell is a screened one.
func TestEstimateRowsPruneIsPure(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	t.Cleanup(telemetry.Disable)
	ctrs := []*telemetry.Counter{rec.Counter("montecarlo.pruned_candidates"), rec.Counter("montecarlo.screened_candidates")}
	for ci, tc := range []struct {
		wl   *workloads.Workload
		home region.ID
	}{{workloads.HeavyTailAnalytics(), region.CACentral1}, {workloads.Text2SpeechCensoring(), region.USEast1}} {
		fresh := func() (*montecarlo.Snapshot, *montecarlo.RowPrune, [][]int) {
			snap := learnSnapshot(t, tc.wl, tc.home)
			H := snap.NumHours()
			home, err := snap.EstimateRows([][]int{snap.HomeAssign()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			prune := &montecarlo.RowPrune{Metric: montecarlo.BatchCarbonMean, Threshold: make([]float64, H), Horizon: make([]int, H)}
			for h, e := range home[0] {
				prune.Threshold[h] = e.CarbonMean * (1 + 1e-9)
				prune.Horizon[h] = e.Samples
			}
			rng := rand.New(rand.NewSource(11))
			assigns := make([][]int, 24)
			for i := range assigns {
				assigns[i] = make([]int, snap.NumNodes())
				for j := range assigns[i] {
					assigns[i][j] = rng.Intn(snap.Regions())
				}
			}
			return snap, prune, assigns
		}
		// counted runs sweep and returns its nil pattern with the counters'
		// movement, pruned then screened.
		counted := func(sweep func() [][]*montecarlo.Estimate) ([]bool, [2]int64) {
			var d [2]int64
			for i, c := range ctrs {
				d[i] = c.Value()
			}
			var p []bool
			for _, row := range sweep() {
				for _, e := range row {
					p = append(p, e == nil)
				}
			}
			for i, c := range ctrs {
				d[i] = c.Value() - d[i]
			}
			return p, d
		}
		same := func(how string, got []bool, gotN [2]int64, want []bool, wantN [2]int64) {
			t.Helper()
			if gotN != wantN {
				t.Errorf("%s: %s pruned/screened %v (plan, hour) pairs, one chunk %v", tc.wl.Name, how, gotN, wantN)
			}
			for i, nilHere := range got {
				if nilHere != want[i] {
					t.Fatalf("%s plan %d hour %d: nil=%v %s, %v in one chunk", tc.wl.Name, i/24, i%24, nilHere, how, want[i])
				}
			}
		}

		snap, prune, assigns := fresh()
		want, wantN := counted(func() [][]*montecarlo.Estimate {
			rows, err := snap.EstimateRows(assigns, prune)
			if err != nil {
				t.Fatal(err)
			}
			return rows
		})
		if wantN[ci] == 0 || wantN[1-ci] != 0 {
			t.Fatalf("%s: pruned/screened %v: the purity check would be vacuous or covers the wrong clause", tc.wl.Name, wantN)
		}

		// One lane per sweep, last plan first, on a fresh snapshot.
		snap, prune, assigns = fresh()
		got, gotN := counted(func() [][]*montecarlo.Estimate {
			single := make([][]*montecarlo.Estimate, len(assigns))
			for i := len(assigns) - 1; i >= 0; i-- {
				rows, err := snap.EstimateRows(assigns[i:i+1], prune)
				if err != nil {
					t.Fatal(err)
				}
				single[i] = rows[0]
			}
			return single
		})
		same("one lane per sweep", got, gotN, want, wantN)

		// Tape and every hour's bound columns already compiled to the end.
		snap, prune, assigns = fresh()
		slow := make([]int, snap.NumNodes()) // all in region 0: dirtier than home, never converges early on the chain
		for h := 0; h < snap.NumHours(); h++ {
			if _, err := snap.Estimate(slow, h); err != nil {
				t.Fatal(err)
			}
		}
		got, gotN = counted(func() [][]*montecarlo.Estimate {
			rows, err := snap.EstimateRows(assigns, prune)
			if err != nil {
				t.Fatal(err)
			}
			return rows
		})
		same("on a pre-extended tape", got, gotN, want, wantN)

		// The same lanes over the window [h0, H), long enough to screen, on a
		// fresh snapshot: thresholds, horizons and screens are read at the
		// absolute hour, so the window closes exactly the cells the full
		// window closes at those hours, by the same clause.
		const h0 = 12
		snap, prune, assigns = fresh()
		H := snap.NumHours()
		got, gotN = counted(func() [][]*montecarlo.Estimate {
			rows, err := snap.EstimateWindow(assigns, h0, H-h0, prune)
			if err != nil {
				t.Fatal(err)
			}
			return rows
		})
		var closed int64
		for i, nilHere := range got {
			p, h := i/(H-h0), h0+i%(H-h0)
			if nilHere != want[p*H+h] {
				t.Fatalf("%s plan %d hour %d: nil=%v over [%d, %d), %v over the full window", tc.wl.Name, p, h, nilHere, h0, H, want[p*H+h])
			}
			if nilHere {
				closed++
			}
		}
		if gotN[ci] == 0 || gotN[1-ci] != 0 || gotN[ci] != closed {
			t.Errorf("%s: over [%d, %d) pruned/screened %v for %d nil cells", tc.wl.Name, h0, H, gotN, closed)
		}
	}
}

// FuzzEstimateRows drives the row contract from raw bytes: byte 0 picks the
// fixture, byte 1 the pruning metric, byte 2 the threshold scale (0.25× to
// 4.2× the home row's metric), and the rest — one byte per stage, up to four
// plans — the dense assignments swept together. CI runs it for ten seconds
// (`make fuzz`).
func FuzzEstimateRows(f *testing.F) {
	f.Add([]byte{3, 0, 48, 1, 2, 3, 0, 1, 2}) // more seeds under testdata/fuzz/FuzzEstimateRows
	f.Fuzz(func(t *testing.T, data []byte) { fuzzRows(t, data) })
}

// fuzzRows is FuzzEstimateRows's body; it reports checkRows's nil and
// screened counts.
func fuzzRows(t *testing.T, data []byte) (pruned, screened int) {
	for len(data) < 3 {
		data = append(data, 0)
	}
	fixtures := rowFixtures(t)
	fx := fixtures[int(data[0])%len(fixtures)]
	metric := montecarlo.BatchMetric(data[1] % 3)
	scale := 0.25 + float64(data[2])/64
	n := fx.snap.NumNodes()
	var assigns [][]int
	for rest := data[3:]; len(assigns) < 4 && (len(rest) > 0 || len(assigns) == 0); {
		a := make([]int, n)
		for i := 0; i < n && i < len(rest); i++ {
			a[i] = int(rest[i]) % fx.snap.Regions()
		}
		assigns = append(assigns, a)
		rest = rest[min(n, len(rest)):]
	}
	pruned, screened, _ = checkRows(t, fx, assigns, metric, scale)
	return pruned, screened
}

// TestFuzzSeedsHitScreen runs the two corpus seeds added with the screen
// clause (testdata/fuzz/FuzzEstimateRows/text2speech-screened-carbon and
// text2speech-central-screened-cost) and requires that the screen closes
// some cells and leaves others to be priced on both — carbon against a mean
// the statistics predict, cost against the block's own mean — so the fuzzer
// starts from inputs that reach the clause from both sides.
func TestFuzzSeedsHitScreen(t *testing.T) {
	for name, seed := range map[string][]byte{
		"text2speech-screened-carbon":       {6, 0, 44, 0, 1, 2, 3, 0, 3, 3, 3, 1, 1, 2, 2, 2, 2},
		"text2speech-central-screened-cost": {7, 1, 56, 0, 1, 2, 3, 0, 3, 3, 3, 1, 1, 2, 2, 2, 2},
	} {
		if pruned, screened := fuzzRows(t, seed); screened == 0 || screened == 3*24 {
			t.Errorf("%s: %d of 72 cells nil, %d of them screened", name, pruned, screened)
		}
	}
}

// TestStaticSlotsCoverDenseAccumulation is the slot-list contract: for the
// five Table-1 workflows (and the heavy-tail chain), at both homes, no
// sample of any plan — home, every single-region plan, 40 seeded random
// ones — leaves a non-zero in the dense nR + nR² accumulators outside the
// plan's static slot lists, and commit leaves the accumulators zero.
func TestStaticSlotsCoverDenseAccumulation(t *testing.T) {
	for _, f := range rowFixtures(t) {
		rng := rand.New(rand.NewSource(3))
		assigns := [][]int{f.snap.HomeAssign()}
		for r := 0; r < f.snap.Regions(); r++ {
			a := make([]int, f.snap.NumNodes())
			for i := range a {
				a[i] = r
			}
			assigns = append(assigns, a)
		}
		for k := 0; k < 40; k++ {
			a := make([]int, f.snap.NumNodes())
			for i := range a {
				a[i] = rng.Intn(f.snap.Regions())
			}
			assigns = append(assigns, a)
		}
		touched := 0
		for _, a := range assigns {
			leak, n, err := f.snap.SlotLeak(a)
			if err != nil {
				t.Fatal(err)
			}
			if leak != "" {
				t.Errorf("%s plan %v: %s", f.name, a, leak)
			}
			touched += n
		}
		if touched == 0 {
			t.Errorf("%s: no dense entry was ever touched", f.name)
		}
	}
}
