package eval

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/workloads"
)

// fig7TestOptions is a reduced-scale Fig 7: one workload with a one-stage
// DAG (four candidate plans), one input class, light traffic.
func fig7TestOptions(pool *Pool) Fig7Options {
	return Fig7Options{
		Workloads: []*workloads.Workload{workloads.DNAVisualization()},
		Classes:   []workloads.InputClass{workloads.Small},
		PerDay:    48,
		Seed:      7,
		Pool:      pool,
	}
}

func TestPoolWorkersDefault(t *testing.T) {
	if got := cap(NewPool(0).sem); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := cap(NewPool(3).sem); got != 3 {
		t.Errorf("workers = %d, want 3", got)
	}
}

// TestFig7DeterministicAcrossWorkers is the harness's core guarantee:
// figure rows are bit-identical regardless of the worker count. Run under
// -race by make verify, this also shakes out data races between
// concurrently executing runs.
func TestFig7DeterministicAcrossWorkers(t *testing.T) {
	serial, err := Fig7(fig7TestOptions(NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig7(fig7TestOptions(NewPool(8)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("rows differ between Workers=1 and Workers=8:\n%+v\nvs\n%+v", serial, parallel)
	}
}

// TestFig7RunCounts pins the figure's execution economy: each coarse
// strategy runs once per (workload, class) group and is re-accounted under
// both transmission scenarios, so one group costs 4 coarse + 5 fine x 2
// scenarios = 14 executions. A second identical Fig 7 on the same pool is
// served entirely from the memo.
func TestFig7RunCounts(t *testing.T) {
	pool := NewPool(2)
	if _, err := Fig7(fig7TestOptions(pool)); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	want := PoolStats{Submitted: 14, Executed: 14, Hits: 0}
	if st != want {
		t.Fatalf("first Fig7 stats = %+v, want %+v", st, want)
	}

	if _, err := Fig7(fig7TestOptions(pool)); err != nil {
		t.Fatal(err)
	}
	st = pool.Stats()
	want = PoolStats{Submitted: 28, Executed: 14, Hits: 14}
	if st != want {
		t.Fatalf("second Fig7 stats = %+v, want %+v", st, want)
	}
}

// TestCoarsePlanTxInert asserts the key property behind the cross-scenario
// sharing: coarse runs never consult the solver, so planning-only inputs
// (PlanTx, Tolerances, BenchFraction) do not distinguish coarse memo keys
// — while fine keys must keep them apart.
func TestCoarsePlanTxInert(t *testing.T) {
	wl := workloads.DNAVisualization()
	coarse := RunConfig{
		Workload: wl, Class: workloads.Small,
		Regions:  []region.ID{region.USEast1},
		Strategy: CoarseIn(region.USEast1),
		PerDay:   24, Seed: 5,
	}
	variant := coarse
	variant.PlanTx = carbon.WorstCase()
	variant.BenchFraction = 0.5
	variant.Tolerances = &solver.Tolerances{Latency: solver.Tol(5)}

	k1 := coarse.withDefaults().canonicalKey()
	k2 := variant.withDefaults().canonicalKey()
	if k1 != k2 {
		t.Errorf("coarse keys differ on planning-only inputs:\n%s\n%s", k1, k2)
	}

	pool := NewPool(1)
	r1, err := pool.Run(coarse)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pool.Run(variant)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("coarse variants did not share one execution")
	}
	if st := pool.Stats(); st.Executed != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 executed, 1 hit", st)
	}

	fine := coarse
	fine.Strategy = Fine
	fine.Regions = region.EvaluationFour()
	fineWorst := fine
	fineWorst.PlanTx = carbon.WorstCase()
	if fine.withDefaults().canonicalKey() == fineWorst.withDefaults().canonicalKey() {
		t.Error("fine keys must distinguish PlanTx")
	}
	fineTol := fine
	fineTol.Tolerances = &solver.Tolerances{Latency: solver.Tol(5)}
	if fine.withDefaults().canonicalKey() == fineTol.withDefaults().canonicalKey() {
		t.Error("fine keys must distinguish Tolerances")
	}
	fineBench := fine
	fineBench.BenchFraction = 0.5
	if fine.withDefaults().canonicalKey() == fineBench.withDefaults().canonicalKey() {
		t.Error("fine keys must distinguish BenchFraction")
	}
}

// TestRunAllAlignmentAndMemo checks that RunAll results line up with the
// submitted configs and that duplicates collapse onto one execution.
func TestRunAllAlignmentAndMemo(t *testing.T) {
	wl := workloads.DNAVisualization()
	cfg := func(seed int64) RunConfig {
		return RunConfig{
			Workload: wl, Class: workloads.Small,
			Regions:  []region.ID{region.USEast1},
			Strategy: CoarseIn(region.USEast1),
			PerDay:   24, Seed: seed,
		}
	}
	pool := NewPool(4)
	results, err := pool.RunAll([]RunConfig{cfg(5), cfg(6), cfg(5), cfg(6), cfg(5)})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] != results[2] || results[2] != results[4] || results[1] != results[3] {
		t.Error("duplicate configs did not share results")
	}
	if results[0] == results[1] {
		t.Error("distinct seeds shared a result")
	}
	if st := pool.Stats(); st.Submitted != 5 || st.Executed != 2 || st.Hits != 3 {
		t.Errorf("stats = %+v, want 5/2/3", st)
	}
}

// TestDoFirstErrorInSubmissionOrder checks the generic lane's error
// contract: the reported error is the first failing job in submission
// order, independent of completion order.
func TestDoFirstErrorInSubmissionOrder(t *testing.T) {
	pool := NewPool(4)
	err := pool.Do(8, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 3 failed") {
		t.Errorf("err = %v, want first failure (job 3)", err)
	}
	if err := pool.Do(4, func(int) error { return nil }); err != nil {
		t.Errorf("all-ok Do returned %v", err)
	}
}

// TestSummarizeWindowBoundaries pins the half-open [from, to) window
// semantics: a record ending exactly at from is included, one ending
// exactly at to is excluded, and an empty window is an error.
func TestSummarizeWindowBoundaries(t *testing.T) {
	res, err := Run(RunConfig{
		Workload: workloads.DNAVisualization(), Class: workloads.Small,
		Regions:  []region.ID{region.USEast1},
		Strategy: CoarseIn(region.USEast1),
		PerDay:   24, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := carbon.BestCase()
	full, err := res.Summarize(tx)
	if err != nil {
		t.Fatal(err)
	}

	// A window spanning everything matches the plain summary.
	wide, err := res.SummarizeWindow(tx, EvalStart, EvalStart.Add(365*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, wide) {
		t.Errorf("wide window != full summary:\n%+v\nvs\n%+v", wide, full)
	}

	first := res.App.Records[res.Start]
	e := first.End

	// from == record End: included.
	at, err := res.SummarizeWindow(tx, e, e.Add(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if at.Invocations != 1 {
		t.Errorf("[End, End+1ns) invocations = %d, want 1", at.Invocations)
	}

	// to == record End: excluded. The first measured record is the
	// earliest-ending one, so the window below it is empty.
	if _, err := res.SummarizeWindow(tx, EvalStart, e); err == nil {
		t.Error("[EvalStart, firstEnd) should be empty (at-to record excluded)")
	}
	if sum, err := res.SummarizeWindow(tx, EvalStart, e.Add(time.Nanosecond)); err != nil || sum.Invocations != 1 {
		t.Errorf("[EvalStart, firstEnd+1ns) = (%+v, %v), want exactly 1 invocation", sum, err)
	}

	// Empty window.
	if _, err := res.SummarizeWindow(tx, e, e); err == nil {
		t.Error("empty window should error")
	}
}
