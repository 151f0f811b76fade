package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"caribou/internal/telemetry"
)

// The traced run. internal/telemetry is enabled before any solver, pool,
// store or server is constructed (they capture their instrument handles
// at construction); the harness wraps every call it makes into a layer in
// its own spans — one root span per op, one child per layer call — and
// reads the program's existing counters at the same boundaries. Spans
// inside the program are a later issue, so the program's own few spans
// (solver.solve_hourly, pool.run, controlplane.*) appear as unlinked
// roots next to the harness's.

// defaultTraceSpans bounds the flight recorder during a traced run unless
// the workload asks for more. The ring is allocated up front and full of
// pointers the collector must scan, so it is sized to the workload: a
// ring big enough for serve-read's quarter-million requests would tax
// serve-ingest's allocation-heavy solves.
const defaultTraceSpans = 1 << 15

// perLayer are the metrics of single layers, reported by the traced run.
// A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"montecarlo.compile_us", "us"},
	{"montecarlo.tape_build_us", "us"},
	{"montecarlo.replay_ns_per_sample", "ns"},
	{"montecarlo.batch_ns_per_sample", "ns"},
	{"montecarlo.untaped_ns_per_sample", "ns"},
	{"montecarlo.samples_per_solve", "count"},
	{"montecarlo.samples_per_estimate", "count"},
	{"montecarlo.pruned_per_solve", "count"},
	{"montecarlo.delta_resumed_share", "ratio"},
	{"montecarlo.tape_reuse_ratio", "ratio"},
	{"solver.solve_ms", "ms"},
	{"solver.solve_one_ms", "ms"},
	{"solver.estimates_per_solve", "count"},
	{"solver.memo_hit_share", "ratio"},
	{"solver.hbss_batches_per_solve", "count"},
	{"solver.self_share", "ratio"},
	{"solver.parallel_speedup", "ratio"},
	{"solver.slow_converge_solve_ms", "ms"},
	{"executor.sim_us_per_invocation", "us"},
	{"platform.invocations_per_run", "count"},
	{"platform.transfers_per_run", "count"},
	{"platform.cold_start_share", "ratio"},
	{"metrics.ingest_us_per_record", "us"},
	{"metrics.refresh_forecasts_ms", "ms"},
	{"carbon.source_build_ms", "ms"},
	{"deployer.deploy_ms", "ms"},
	{"core.env_build_ms", "ms"},
	{"core.summarize_ms", "ms"},
	{"eval.run_fine_ms", "ms"},
	{"eval.run_coarse_ms", "ms"},
	{"eval.pool_executed_per_op", "count"},
	{"eval.pool_memo_hit_share", "ratio"},
	{"eval.pool_parallel_speedup", "ratio"},
	{"runstore.get_us", "us"},
	{"runstore.put_us", "us"},
	{"runstore.blob_kb", "kB"},
	{"runstore.hit_share", "ratio"},
	{"eval.decode_ms", "ms"},
	{"eval.encode_ms", "ms"},
	{"controlplane.handler_get_us", "us"},
	{"controlplane.handler_delta_us", "us"},
	{"controlplane.handler_delta_solve_ms", "ms"},
	{"controlplane.handler_register_ms", "ms"},
	{"controlplane.http_overhead_us", "us"},
	{"controlplane.delta_wait_ms", "ms"},
	{"controlplane.solves_per_delta", "ratio"},
	{"controlplane.rejected_share", "ratio"},
	{"controlplane.queue_depth_max", "count"},
	{"controlplane.get_under_ingest_p99_ms", "ms"},
	{"controlplane.register_p50_ms", "ms"},
	{"controlplane.closed_loop_ops_per_s", "1/s"},
	{"controlplane.rss_kb_per_tenant", "kB"},
	{"loadgen.op_p90_ms", "ms"},
	{"loadgen.op_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.r1_p99_ms", "ms"},
	{"loadgen.r2_p99_ms", "ms"},
	{"loadgen.r3_p99_ms", "ms"},
	{"loadgen.r4_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.max_rate_ok", "1/s"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.allocs_per_op", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// counterNames are the program counters the harness reads.
var counterNames = []string{
	"montecarlo.estimates", "montecarlo.samples", "montecarlo.tape_samples",
	"montecarlo.delta_resumed", "montecarlo.pruned_candidates",
	"solver.solves", "solver.estimates", "solver.memo_hits", "solver.hbss_batches",
	"platform.invocations", "platform.cold_starts", "platform.transfers",
	"pool.submitted", "pool.executed", "pool.memo_hits", "pool.disk_hits",
	"runstore.hits", "runstore.misses", "runstore.corrupt", "runstore.writes",
	"controlplane.deltas", "controlplane.registers", "controlplane.plan_queries", "controlplane.rejections",
}

// snapshotCounters reads every counter in counterNames; nil when
// telemetry is off.
func snapshotCounters(rec *telemetry.Recorder) map[string]int64 {
	if rec == nil {
		return nil
	}
	out := make(map[string]int64, len(counterNames))
	for _, name := range counterNames {
		out[name] = rec.Counter(name).Value()
	}
	return out
}

func counterDeltas(before, after map[string]int64) map[string]int64 {
	if after == nil {
		return nil
	}
	out := make(map[string]int64, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

// selfTimes folds spans into per-name totals. A span's self time is its
// duration minus the part of that interval its child spans cover
// (children may overlap each other — pool runs execute concurrently — so
// their union, clipped to the parent, is what is subtracted).
func selfTimes(recs []telemetry.Record) []layerRow {
	type iv struct{ lo, hi int64 }
	children := map[uint64][]iv{}
	for i := range recs {
		r := &recs[i]
		if r.Type == "span" && r.Parent != 0 {
			lo := r.Wall.UnixNano()
			children[r.Parent] = append(children[r.Parent], iv{lo, lo + r.DurNS})
		}
	}
	rows := map[string]*layerRow{}
	for i := range recs {
		r := &recs[i]
		if r.Type != "span" {
			continue
		}
		lo := r.Wall.UnixNano()
		hi := lo + r.DurNS
		kids := children[r.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		var covered int64
		at := lo
		for _, k := range kids {
			klo, khi := max(k.lo, at), min(k.hi, hi)
			if khi > klo {
				covered += khi - klo
				at = khi
			}
		}
		row, ok := rows[r.Name]
		if !ok {
			row = &layerRow{name: r.Name}
			rows[r.Name] = row
		}
		row.count++
		row.total += time.Duration(r.DurNS)
		row.self += time.Duration(r.DurNS - covered)
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].self != out[b].self {
			return out[a].self > out[b].self
		}
		return out[a].name < out[b].name
	})
	return out
}

// spanDurationsMs returns the durations of the spans called name that
// started inside [from, to].
func spanDurationsMs(recs []telemetry.Record, name string, from, to time.Time) []float64 {
	var out []float64
	for i := range recs {
		if recs[i].Type == "span" && recs[i].Name == name && !recs[i].Wall.Before(from) && !recs[i].Wall.After(to) {
			out = append(out, float64(recs[i].DurNS)/1e6)
		}
	}
	return out
}

func printSelfTimes(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "per-layer self time (span duration minus children):\n")
	fmt.Fprintf(w, "  %-34s %8s %14s %14s\n", "span", "count", "total", "self")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %8d %14v %14v\n", r.name, r.count, r.total.Round(time.Microsecond), r.self.Round(time.Microsecond))
	}
}

// writeTrace dumps the recorder as NDJSON under dir and returns the path.
func writeTrace(rec *telemetry.Recorder, dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := rec.WriteNDJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// timeMs times one call.
func timeMs(fn func()) float64 {
	t0 := now()
	fn()
	return float64(now().Sub(t0)) / float64(time.Millisecond)
}

// inSpan runs fn inside a child span of parent named name.
func inSpan(parent *telemetry.Span, name string, fn func() error) error {
	sp := parent.StartChild(name)
	defer sp.End()
	return fn()
}
