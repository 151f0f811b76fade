package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"caribou/internal/telemetry"
)

// ctx is one run's parameters and sinks.
type ctx struct {
	seed    int64
	seconds float64
	// rec is the process-wide telemetry recorder during the traced part
	// of a -trace run and nil otherwise; every telemetry method is
	// nil-safe, so workloads open spans unconditionally.
	rec    *telemetry.Recorder
	outDir string
	w      io.Writer // human-readable report
}

func (c *ctx) printf(format string, args ...any) { fmt.Fprintf(c.w, format, args...) }

// workload is one named set of inputs. Names are stable: later issues
// cite them.
type workload struct {
	name string
	why  string
	// setupReps is how many times set-up runs so setup_s can be a median;
	// the last instance is the one measured.
	setupReps int
	// openLoop marks the serve workloads. Their tenants age with every
	// delta, so the traced run replays the whole untraced procedure; a
	// closed-loop workload's traced phases are shorter.
	openLoop bool
	// traceSpans sizes the flight recorder of a traced run when the
	// default is too small to keep every span.
	traceSpans int
	// setup builds everything the timed phase needs from c.seed; its
	// wall time is setup_s. sp is the enclosing span (nil untraced).
	setup func(c *ctx, sp *telemetry.Span) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// measure runs an untimed warm-up, then the timed phase for d.
	measure(c *ctx, warm, d time.Duration) *phase
	// probe measures single layers in isolation after a traced measure
	// and derives the per-layer metrics from it and from ph.
	probe(c *ctx, ph *phase, m metricSet)
	// carbonSavedPct is the deterministic quality guard: how much carbon
	// the plans this instance produced save against staying home.
	carbonSavedPct() float64
	close()
}

// capacityRunner is an open-loop instance's closed-loop capacity run: the
// completion rate of its mix from all senders over d. The traced run
// compares it with telemetry off and on; a closed-loop workload's timed
// phase already is that measurement.
type capacityRunner interface {
	capacity(c *ctx, d time.Duration) float64
}

// phase is what a timed phase observed.
type phase struct {
	primary   []float64 // primary-op latencies, ms, in completion order
	opsPerS   float64
	attempted int // every op issued, warm-up included
	failed    int // failed, refused, wrong-status, invalid-body or check-failing ops
	problems  []string
	mem       memDelta
	start     time.Time // the timed window
	end       time.Time
	counters  map[string]int64 // telemetry counter deltas over the timed window (traced runs)
	ladder    []stepStats      // serve workloads
}

// fail records one failed op; only the first few reasons are kept.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// closedLoop runs op back to back from one client: warm-up for warm
// (untimed, but still checked), then for d. Each op gets its own root
// span; op wraps its calls into layers in children of it.
func closedLoop(c *ctx, warm, d time.Duration, op func(i int, root *telemetry.Span) error) *phase {
	ph := &phase{}
	run := func(i int) float64 {
		root := c.rec.StartSpan("op", telemetry.Int("i", int64(i)))
		t0 := now()
		err := op(i, root)
		ms := float64(now().Sub(t0)) / float64(time.Millisecond)
		root.End()
		ph.attempted++
		if err != nil {
			ph.fail("op %d: %v", i, err)
		}
		return ms
	}
	i := 0
	for start := now(); now().Sub(start) < warm; i++ {
		run(i)
	}
	before := snapshotCounters(c.rec)
	mem0 := readMem()
	ph.start = now()
	for ; now().Sub(ph.start) < d; i++ {
		ph.primary = append(ph.primary, run(i))
	}
	ph.end = now()
	elapsed := ph.end.Sub(ph.start)
	ph.mem = readMem().since(mem0)
	ph.counters = counterDeltas(before, snapshotCounters(c.rec))
	ph.opsPerS = float64(len(ph.primary)) / elapsed.Seconds()
	return ph
}

// metricSet collects named values for one result line.
type metricSet map[string]float64

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system would see, measured with
// telemetry off. Every workload reports every one.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"carbon_saved_pct", "%"},
}

// checkNames reports metrics set under a name BENCHMARK.json does not
// declare — a typo would otherwise silently drop the value.
func checkNames(m metricSet, defs []metricDef) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
	}
	var unknown []string
	for name := range m {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("undeclared metrics %v", unknown)
}

// allWorkloads lists the six workloads in presentation order.
func allWorkloads() []workload {
	return []workload{
		planDay(),
		planDayHeavyTail(),
		reproFig7(),
		sweepWarm(),
		serveRead(),
		serveIngest(),
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
