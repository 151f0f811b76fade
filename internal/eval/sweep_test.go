package eval

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"caribou/internal/solver"
	"caribou/internal/workloads"
)

// TestRunSpecRoundTrip pins that SpecOf → JSON → Config preserves the
// canonical key for the configuration shapes the figures produce.
func TestRunSpecRoundTrip(t *testing.T) {
	cfgs := []RunConfig{
		{Workload: workloads.Text2SpeechCensoring(), Class: workloads.Small,
			Strategy: CoarseIn("aws:us-west-2")},
		{Workload: workloads.DNAVisualization(), Class: workloads.Large,
			Strategy: Fine, EvalDays: 2,
			Tolerances: &solver.Tolerances{Latency: solver.Tol(5)}},
		// Explicitly unconstrained (distinct from nil = default slack).
		{Workload: workloads.ImageProcessing(), Class: workloads.Small,
			Strategy: Fine, Tolerances: &solver.Tolerances{}},
		// A zero-percent limit is set, not absent.
		{Workload: workloads.ImageProcessing(), Class: workloads.Small,
			Strategy: Fine, Tolerances: &solver.Tolerances{Latency: solver.Tol(0)}},
	}
	for i, cfg := range cfgs {
		spec := SpecOf(cfg)
		buf, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		var back RunSpec
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		got, err := back.Config()
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		if got.CanonicalKey() != cfg.CanonicalKey() {
			t.Errorf("cfg %d key drifted through JSON:\n was %s\n now %s",
				i, cfg.CanonicalKey(), got.CanonicalKey())
		}
	}
}

// TestExpandSweepCoversFigures is the sweep↔figure parity contract: the
// fig7–fig10 presets must expand to exactly the canonical keys the
// figure drivers submit, so a sweep-populated store serves a warm figure
// run with zero executions.
func TestExpandSweepCoversFigures(t *testing.T) {
	const seed = int64(17)
	runs, err := ExpandSweep(SweepSpec{
		Figures: FigurePresets(),
		Quick:   true,
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, r := range runs {
		have[r.Cfg.CanonicalKey()] = true
	}

	quickWLs := []*workloads.Workload{workloads.Text2SpeechCensoring(), workloads.ImageProcessing()}
	quickClasses := []workloads.InputClass{workloads.Small}
	var want []RunConfig
	f7, _, _ := fig7Plan(fig7Defaults(Fig7Options{Seed: seed, Workloads: quickWLs, Classes: quickClasses}))
	want = append(want, f7...)
	want = append(want, fig8Configs(fig8Defaults(Fig8Options{Seed: seed, Workloads: quickWLs, Classes: quickClasses}))...)
	want = append(want, fig9Configs(fig9Defaults(Fig9Options{Seed: seed, Workloads: quickWLs, Classes: quickClasses,
		Factors: []float64{1e-4, 1e-3, 1e-2}}))...)
	want = append(want, fig10Configs(fig10Defaults(Fig10Options{Seed: seed,
		Tolerances: []float64{0, 5, 10}}))...)

	for _, cfg := range want {
		if !have[cfg.CanonicalKey()] {
			t.Errorf("figure run missing from sweep expansion: %s", cfg.CanonicalKey())
		}
	}
}

// TestExpandSweepDedupes pins that duplicate configurations across
// sources collapse to one run, keeping first-occurrence order.
func TestExpandSweepDedupes(t *testing.T) {
	spec := SweepSpec{
		Figures: []string{"fig8", "fig8"},
		Quick:   true,
		Seed:    17,
	}
	runs, err := ExpandSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range runs {
		key := r.Cfg.CanonicalKey()
		if seen[key] {
			t.Fatalf("duplicate run in expansion: %s", key)
		}
		seen[key] = true
		if r.Name != key {
			t.Fatalf("run name %q is not its canonical key %q", r.Name, key)
		}
	}
	// fig8 quick: 2 workloads × 1 class × 2 scenarios × (home, fine) = 8
	// configs, minus the scenario-collapsed coarse home baselines = 6.
	if len(runs) != 6 {
		t.Fatalf("expanded %d runs, want 6", len(runs))
	}
}

// TestExpandSweepGridAndRuns exercises the custom grid and explicit-run
// sources, including validation of unknown workloads and presets.
func TestExpandSweepGridAndRuns(t *testing.T) {
	runs, err := ExpandSweep(SweepSpec{
		Seed: 23,
		Grid: &GridSpec{
			Workloads:  []string{"text2speech-censoring"},
			Classes:    []string{"small"},
			Strategies: []string{"fine", "aws:us-east-1"},
		},
		Runs: []RunSpec{{Workload: "image-processing", Class: "small", Seed: 29}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("expanded %d runs, want 3", len(runs))
	}
	if runs[0].Cfg.Seed != 23 || runs[0].Cfg.Strategy.Coarse != "" || runs[1].Cfg.Strategy.Coarse == "" {
		t.Fatalf("grid expansion order unexpected: %+v", runs)
	}
	if _, err := ExpandSweep(SweepSpec{Figures: []string{"fig99"}}); err == nil {
		t.Fatal("unknown figure preset accepted")
	}
	if _, err := ExpandSweep(SweepSpec{Grid: &GridSpec{Workloads: []string{"nope"}}}); err == nil {
		t.Fatal("unknown grid workload accepted")
	}
}

// FuzzRunSpec feeds arbitrary bytes to the sweep manifest's run decoder:
// bytes → RunSpec JSON → Config. Nothing may panic — not Config, not the
// canonical key the pool and ExpandSweep derive from an accepted
// configuration — and an accepted spec is a fixed point of the round trip:
// SpecOf(cfg) survives JSON unchanged, decodes to a configuration with the
// same canonical key, and re-serializes to itself.
func FuzzRunSpec(f *testing.F) {
	for _, cfg := range []RunConfig{
		{Workload: workloads.Text2SpeechCensoring(), Class: workloads.Small, Strategy: CoarseIn("aws:us-west-2")},
		{Workload: workloads.DNAVisualization(), Class: workloads.Large, EvalDays: 2, Tolerances: &solver.Tolerances{Latency: solver.Tol(5)}},
		{Workload: workloads.ImageProcessing(), Tolerances: &solver.Tolerances{}},
	} {
		buf, err := json.Marshal(SpecOf(cfg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	for _, s := range []string{
		`{"workload":"rag-ingestion"}`, `{"workload":"no-such-workflow"}`, `{}`, `null`, `[]`,
		`{"workload":"rag-ingestion","coarse":"x"}`, `{"workload":"rag-ingestion","coarse":"aws:"}`,
		`{"workload":"rag-ingestion","regions":[],"home":"","per_day":-1,"seed":-9223372036854775808}`,
		`{"workload":"rag-ingestion","tolerances":{"latency":-0,"carbon":1e308},"plan_tx_inter":5e-324}`,
		`{"workload":"rag-ingestion","regions":["aws:us-east-1","aws:us-east-1",""],"bench_fraction":2}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rs RunSpec
		if json.Unmarshal(data, &rs) != nil {
			return
		}
		cfg, err := rs.Config()
		if err != nil {
			return
		}
		key, spec := cfg.CanonicalKey(), SpecOf(cfg)
		if strings.Contains(key, "%!") {
			t.Fatalf("canonical key carries a fmt error: %s", key)
		}
		buf, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not serialize: %v", spec, err)
		}
		var back RunSpec
		if err := json.Unmarshal(buf, &back); err != nil || !reflect.DeepEqual(back, spec) {
			t.Fatalf("spec %s decodes to %+v (err %v), want %+v", buf, back, err, spec)
		}
		cfg2, err := back.Config()
		if err != nil {
			t.Fatalf("re-decoded spec %s rejected: %v", buf, err)
		}
		if got := cfg2.CanonicalKey(); got != key {
			t.Fatalf("canonical key moved across the round trip:\n %s\n %s", key, got)
		}
		if again := SpecOf(cfg2); !reflect.DeepEqual(again, spec) {
			t.Fatalf("SpecOf is not a fixed point: %+v then %+v", spec, again)
		}
	})
}
