package eval

import "testing"

// TestExpandSweepCoversFigures is the sweep↔figure parity contract: the
// fig7–fig10 presets must expand to exactly the canonical keys the
// figure drivers submit at the same Scale, so a store filled from the
// expansion serves a warm figure run with zero executions, and an unknown
// preset is refused. TestExpandedStoreServesFiguresWarm (cmd/caribou-eval)
// checks the same against the binary's -quick.
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

	quick := Scale{Seed: seed, Quick: true}
	want, _, _ := fig7Plan(fig7Options(quick))
	want = append(want, fig8Configs(quick)...)
	want = append(want, fig9Configs(quick)...)
	want = append(want, fig10Configs(quick)...)

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
