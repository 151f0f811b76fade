// Command benchmark is the repository's one performance harness: six
// named workloads, end-to-end metrics measured with telemetry off, and a
// separate traced run that attributes the time to layers. BENCHMARK.json
// at the repository root declares the workloads and metrics; README.md in
// this directory defines them.
//
// Usage:
//
//	go run ./benchmark -workload <name|all> -seed N [-seconds S] [-trace 0|1] [-repeat N]
//
// One workload runs in this process and ends with one JSON result line on
// stdout. "all" and -repeat re-execute this binary once per workload and
// repeat, so heap, GC state and peak RSS never leak from one run into the
// next.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"caribou/internal/telemetry"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "workload seed: equal seeds give equal inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics instead of end-to-end ones")
	repeat := fs.Int("repeat", 1, "calibration: run N sets on seeds seed..seed+N-1 and print each metric's median, quartiles and spread")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for traces and scratch stores")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintf(stderr, "benchmark: bad arguments %q\n", args)
		return 2
	}
	if *name == "all" || *repeat > 1 {
		return runSets(*name, *seed, *seconds, *trace, *repeat, *outDir, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	c := &ctx{seed: *seed, seconds: *seconds, outDir: *outDir, w: stdout}
	res, err := runWorkload(w, c, *trace)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// joinTraceValue lets -trace be written as the driver writes it, with a
// separate 0/1 argument; package flag only takes a boolean's value after
// an equals sign.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, args[i]+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(ph *phase, m metricSet, defs []metricDef) (result, error) {
	if err := checkNames(m, defs); err != nil {
		return result{}, err
	}
	res := result{
		Correct:   ph.failed == 0 && len(ph.problems) == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return res, nil
}

// warmup is the untimed lead-in: a tenth of the timed phase.
func warmup(seconds float64) time.Duration {
	return time.Duration(seconds / 10 * float64(time.Second))
}

func secondsOf(d float64) time.Duration { return time.Duration(d * float64(time.Second)) }

// runWorkload is the internal entry point: one workload, one seed, in
// this process.
func runWorkload(w workload, c *ctx, trace bool) (result, error) {
	c.printf("== %s  seed=%d  seconds=%g  trace=%v\n%s\nwhy: %s\n", w.name, c.seed, c.seconds, trace, hostLine(), w.why)
	if trace {
		return runTraced(w, c)
	}
	return runUntraced(w, c)
}

// setUp runs the workload's set-up reps times and keeps the last
// instance; setup_s is the median.
func setUp(w workload, c *ctx, reps int) (instance, float64, error) {
	var inst instance
	var secs []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			// Return the previous instance's memory before building the
			// next, so peak RSS is one instance's, not a pile of them.
			inst.close()
			debug.FreeOSMemory()
		}
		sp := c.rec.StartSpan("setup")
		t0 := now()
		next, err := w.setup(c, sp)
		secs = append(secs, now().Sub(t0).Seconds())
		sp.End()
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		inst = next
	}
	return inst, median(secs), nil
}

// runUntraced measures the end-to-end metrics with telemetry off.
func runUntraced(w workload, c *ctx) (result, error) {
	telemetry.Disable()
	inst, setupS, err := setUp(w, c, w.setupReps)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	ph := inst.measure(c, warmup(c.seconds), secondsOf(c.seconds))
	sorted := sortedCopy(ph.primary)
	m := metricSet{
		"setup_s":          setupS,
		"ops_per_s":        ph.opsPerS,
		"op_p50_ms":        percentile(sorted, 50),
		"carbon_saved_pct": inst.carbonSavedPct(),
	}

	c.printf("end-to-end (telemetry off):\n")
	c.printf("  %-18s %12.4f s      median of %d set-ups\n", "setup_s", setupS, w.setupReps)
	c.printf("  %-18s %12.4f 1/s    %s\n", "ops_per_s", ph.opsPerS, opsNote(ph))
	c.printf("  %-18s %12.4f ms     n=%d\n", "op_p50_ms", m["op_p50_ms"], len(sorted))
	for _, p := range []float64{90, 95, 99} {
		if b := beyond(len(sorted), p); b >= 10 {
			c.printf("  %-18s %12.4f ms     n=%d, %d beyond\n", fmt.Sprintf("op_p%g_ms", p), percentile(sorted, p), len(sorted), b)
		} else {
			c.printf("  %-18s %12s        n=%d leaves %d beyond; ten are needed\n", fmt.Sprintf("op_p%g_ms", p), "n/a", len(sorted), b)
		}
	}
	if ph.ladder != nil {
		c.printf("  %-18s %12.0f 1/s    highest ladder rate holding p99 <= limit without a growing backlog\n", "max_rate_ok", maxRateOK(ph.ladder))
	} else {
		c.printf("  %-18s %12s        closed loop\n", "max_rate_ok", "n/a")
	}
	c.printf("  %-18s %12.6f        %d failed of %d attempted\n", "failed_share", ratio(float64(ph.failed), float64(ph.attempted)), ph.failed, ph.attempted)
	c.printf("  %-18s %12.2f MB     VmHWM\n", "peak_rss_mb", peakRSSMB())
	c.printf("  %-18s %12.6f %%\n", "carbon_saved_pct", m["carbon_saved_pct"])
	printLadder(c, ph)
	printProblems(c, ph)
	return newResult(ph, m, endToEnd)
}

func opsNote(ph *phase) string {
	if ph.ladder != nil {
		top := ph.ladder[len(ph.ladder)-1]
		return fmt.Sprintf("primary-op goodput at the saturating step R4=%g/s", top.rate)
	}
	return fmt.Sprintf("n=%d ops, closed loop, 1 client", len(ph.primary))
}

func printLadder(c *ctx, ph *phase) {
	if ph.ladder == nil {
		return
	}
	c.printf("ladder (latency from intended send time):\n")
	c.printf("  %4s %9s %8s %7s %10s %10s %10s %10s %9s %8s %9s %5s\n", "step", "rate/s", "sent", "failed", "p50 ms", "p99 ms", "late p99", "sent→ p50", "backlog", "solved", "goodput", "ok")
	for k, st := range ph.ladder {
		c.printf("  R%-3d %9.0f %8d %7d %10.4f %10.4f %10.4f %10.4f %9d %8d %9.1f %5v\n",
			k+1, st.rate, st.sent, st.failed, percentile(st.primary, 50), percentile(st.primary, 99), st.lateP99, percentile(st.service, 50), st.backlog, st.solved, st.goodput, st.ok)
	}
	for kind, name := range kindNames {
		if xs := ph.ladder[1].byKind[kind]; len(xs) > 0 {
			c.printf("  R2 %-22s p50 %9.4f ms  p99 %9.4f ms  n=%d\n", name, percentile(xs, 50), percentile(xs, 99), len(xs))
		}
	}
}

func printProblems(c *ctx, ph *phase) {
	if ph.failed == 0 && len(ph.problems) == 0 {
		c.printf("checks: all passed\n")
		return
	}
	c.printf("checks: %d of %d ops FAILED\n", ph.failed, ph.attempted)
	for _, p := range ph.problems {
		c.printf("  %s\n", p)
	}
}

// runTraced measures the per-layer metrics. The same work runs twice —
// set-up, warm-up, a timed phase and, on the serve workloads, a
// closed-loop capacity run — first with telemetry off, then with it
// enabled before the workload constructs anything; the difference between
// the two capacities is the tracing overhead, and the second timed phase
// is the one attributed to layers.
func runTraced(w workload, c *ctx) (result, error) {
	// A closed-loop timed phase is itself a capacity run; the serve
	// workloads replay their whole ladder (see workload.openLoop) and
	// then run their mix closed-loop.
	share := 0.5
	if w.openLoop {
		share = 1
	}
	pass := func() (instance, *phase, float64, error) {
		inst, _, err := setUp(w, c, 1)
		if err != nil {
			return nil, nil, 0, err
		}
		ph := inst.measure(c, warmup(c.seconds*share), secondsOf(c.seconds*share))
		rate := ph.opsPerS
		if cr, ok := inst.(capacityRunner); ok {
			rate = cr.capacity(c, secondsOf(c.seconds*0.15))
		}
		return inst, ph, rate, nil
	}

	telemetry.Disable()
	inst, _, capOff, err := pass()
	if err != nil {
		return result{}, err
	}
	inst.close()
	debug.FreeOSMemory()

	spans := defaultTraceSpans
	if w.traceSpans > 0 {
		spans = w.traceSpans
	}
	c.rec = telemetry.Enable(telemetry.Options{Capacity: spans})
	defer telemetry.Disable()
	inst, ph, capOn, err := pass()
	if err != nil {
		return result{}, err
	}
	defer inst.close()

	m := metricSet{}
	inst.probe(c, ph, m)
	recs := c.rec.Records()
	m["solver.solve_ms"] = median(spanDurationsMs(recs, "solver.solve_hourly", ph.start, ph.end))
	if ph.ladder != nil {
		m["controlplane.closed_loop_ops_per_s"] = capOn
	}
	// The primary op's tail, which no 10 s run on a shared 2-core host
	// resolves tightly enough to carry a regression bound.
	sorted := sortedCopy(ph.primary)
	m["loadgen.op_p90_ms"] = percentile(sorted, 90)
	m["loadgen.op_p99_ms"] = percentile(sorted, 99)
	// MemStats cover the timed window, so count the ops inside it.
	ops := float64(max(len(ph.primary), 1))
	if ph.ladder != nil {
		ops = m["loadgen.sent"]
	}
	m["go.alloc_mb_per_op"] = float64(ph.mem.allocBytes) / (1 << 20) / ops
	m["go.allocs_per_op"] = float64(ph.mem.mallocs) / ops
	m["go.gc_pause_ms"] = float64(ph.mem.gcPauseNs) / 1e6
	m["go.peak_rss_mb"] = peakRSSMB()
	m["trace.overhead_pct"] = 100 * (1 - ratio(capOn, capOff))

	path, err := writeTrace(c.rec, c.outDir, w.name, c.seed)
	if err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	c.printf("per-layer (telemetry on; spans in %s):\n", path)
	for _, d := range perLayer {
		c.printf("  %-40s %16.4f %s\n", d.name, m[d.name], d.unit)
	}
	c.printf("capacity: %.4f/s untraced, %.4f/s traced\n", capOff, capOn)
	printSelfTimes(c.w, selfTimes(recs))
	printLadder(c, ph)
	printProblems(c, ph)
	return newResult(ph, m, perLayer)
}

// runSets is the parent mode: every requested workload, repeat times,
// each in a process of its own.
func runSets(name string, seed int64, seconds float64, trace bool, repeat int, outDir string, stdout, stderr io.Writer) int {
	var names []string
	if name == "all" {
		for _, w := range allWorkloads() {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(name); ok {
		names = []string{name}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	// values[workload][metric] collects one value per set.
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	status := 0
	for r := 0; r < repeat; r++ {
		for _, n := range names {
			cmd := exec.Command(self,
				"-workload", n, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace="+strconv.FormatBool(trace), "-out", outDir)
			var out bytes.Buffer
			cmd.Stdout = io.MultiWriter(stdout, &out)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", n, seed+int64(r), err)
				status = 1
			}
			res, ok := lastResult(out.Bytes())
			if !ok {
				status = 1
				continue
			}
			if values[n] == nil {
				values[n] = map[string][]float64{}
			}
			for metricName, v := range res.Metrics {
				values[n][metricName] = append(values[n][metricName], v.Value)
				units[metricName] = v.Unit
			}
		}
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "\n== summary: %d set(s), seeds %d..%d, %g s timed phase\n", repeat, seed, seed+int64(repeat)-1, seconds)
	for _, n := range names {
		fmt.Fprintf(stdout, "%s\n", n)
		for _, d := range defs {
			xs := values[n][d.name]
			if len(xs) == 0 {
				continue
			}
			if repeat == 1 {
				fmt.Fprintf(stdout, "  %-40s %16.4f %s\n", d.name, xs[0], units[d.name])
				continue
			}
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(stdout, "  %-40s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.2f%%  %s (n=%d)\n",
				d.name, q2, q1, q3, 100*spread(xs), units[d.name], len(xs))
		}
	}
	return status
}

// lastResult parses the JSON line a child run ends with.
func lastResult(out []byte) (result, bool) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if json.Unmarshal([]byte(last), &res) != nil || res.Metrics == nil {
		return res, false
	}
	return res, true
}
