package eval

import "fmt"

// This file expands figure presets into the exact RunConfigs the figure
// drivers submit (the presets call the drivers' own planners at the same
// Scale), so a store filled from an expansion serves a later figure run
// entirely from disk.

// SweepSpec names the figure presets to expand. Expansion dedupes by
// canonical key, so overlapping figures (e.g. fig8 and fig9 sharing home
// baselines) cost one run each.
type SweepSpec struct {
	// Figures lists figure presets ("fig7" … "fig10"); each expands to
	// exactly the runs the corresponding caribou-eval experiment submits.
	Figures []string
	// Quick expands each figure at its Quick scale, the one
	// caribou-eval -quick runs.
	Quick bool
	Seed  int64
}

// SweepRun is one expanded run: its label (the canonical configuration
// serialization, which is also what its storage key hashes) and the
// configuration itself.
type SweepRun struct {
	Name string
	Cfg  RunConfig
}

// ExpandSweep expands a spec into its deduplicated run list in
// deterministic first-occurrence order.
func ExpandSweep(spec SweepSpec) ([]SweepRun, error) {
	var cfgs []RunConfig
	for _, fig := range spec.Figures {
		fc, err := figureConfigs(fig, Scale{Seed: spec.Seed, Quick: spec.Quick})
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, fc...)
	}
	seen := map[string]bool{}
	var out []SweepRun
	for _, cfg := range cfgs {
		key := cfg.CanonicalKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, SweepRun{Name: key, Cfg: cfg.withDefaults()})
	}
	return out, nil
}

// FigurePresets lists the figure names ExpandSweep accepts.
func FigurePresets() []string { return []string{"fig7", "fig8", "fig9", "fig10"} }

// figureConfigs expands one figure preset at scale s into the
// configurations the experiment of that name submits, through the
// planner its driver uses.
func figureConfigs(fig string, s Scale) ([]RunConfig, error) {
	switch fig {
	case "fig7":
		cfgs, _, _ := fig7Plan(fig7Options(s))
		return cfgs, nil
	case "fig8":
		return fig8Configs(s), nil
	case "fig9":
		return fig9Configs(s), nil
	case "fig10":
		return fig10Configs(s), nil
	}
	return nil, fmt.Errorf("eval: unknown figure preset %q (want one of %v)", fig, FigurePresets())
}
