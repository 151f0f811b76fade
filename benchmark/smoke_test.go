package main

import (
	"bytes"
	"testing"
)

// TestSmokeEveryWorkload runs each workload for one second through the
// internal entry point, set up once: every op must pass its checks and
// every end-to-end metric must come out non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range allWorkloads() {
		w.setupReps = 1
		t.Run(w.name, func(t *testing.T) {
			var report bytes.Buffer
			c := &ctx{seed: 7, seconds: 1, outDir: t.TempDir(), w: &report}
			res, err := runWorkload(w, c, false)
			if err != nil {
				t.Fatalf("%v\n%s", err, report.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, report.String())
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced pass on the two solver workloads and
// pins the interaction the benchmark was built to show: bound-based
// pruning never fires on plan-day and does on plan-day-heavytail.
func TestSmokeTraced(t *testing.T) {
	pruned := map[string]float64{}
	for _, name := range []string{"plan-day", "plan-day-heavytail"} {
		w, _ := workloadByName(name)
		var report bytes.Buffer
		c := &ctx{seed: 7, seconds: 2, outDir: t.TempDir(), w: &report}
		res, err := runWorkload(w, c, true)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, report.String())
		}
		if !res.Correct {
			t.Errorf("%s: checks failed\n%s", name, report.String())
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, want %d", name, len(res.Metrics), len(perLayer))
		}
		for _, positive := range []string{"montecarlo.replay_ns_per_sample", "montecarlo.samples_per_solve", "solver.solve_ms", "solver.estimates_per_solve"} {
			if res.Metrics[positive].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, positive, res.Metrics[positive].Value)
			}
		}
		if !bytes.Contains(report.Bytes(), []byte("per-layer self time")) || !bytes.Contains(report.Bytes(), []byte("solver.SolveHourly")) {
			t.Errorf("%s: no self-time table with the harness's solver span\n%s", name, report.String())
		}
		pruned[name] = res.Metrics["montecarlo.pruned_per_solve"].Value
	}
	if pruned["plan-day"] != 0 || pruned["plan-day-heavytail"] <= 0 {
		t.Errorf("pruned_per_solve: plan-day %v (want 0), plan-day-heavytail %v (want > 0)", pruned["plan-day"], pruned["plan-day-heavytail"])
	}
}
