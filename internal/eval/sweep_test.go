package eval

import (
	"testing"

	"caribou/internal/workloads"
)

// TestExpandSweepCoversFigures is the sweep↔figure parity contract: the
// fig7–fig10 presets must expand to exactly the canonical keys the
// figure drivers submit, so a store filled from the expansion serves a
// warm figure run with zero executions, and an unknown preset is refused.
// TestExpandedStoreServesFiguresWarm (cmd/caribou-eval) checks the same
// against the binary's own -quick reductions.
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
	if _, err := ExpandSweep(SweepSpec{Figures: []string{"fig99"}}); err == nil {
		t.Fatal("unknown figure preset accepted")
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
