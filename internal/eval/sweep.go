package eval

import (
	"fmt"

	"caribou/internal/workloads"
)

// This file expands figure presets into the exact RunConfigs the figure
// drivers submit (the presets reuse the figNConfigs planners), so a store
// filled from an expansion serves a later figure run entirely from disk.

// SweepSpec names the figure presets to expand. Expansion dedupes by
// canonical key, so overlapping figures (e.g. fig8 and fig9 sharing home
// baselines) cost one run each.
type SweepSpec struct {
	// Figures lists figure presets ("fig7" … "fig10"); each expands to
	// exactly the runs the corresponding caribou-eval experiment submits.
	Figures []string
	// Quick mirrors caribou-eval -quick: the reduced workload set and
	// swept parameter lists.
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
		fc, err := figureConfigs(fig, spec.Quick, spec.Seed)
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

// figureConfigs expands one figure preset into the same configurations
// the caribou-eval experiment of that name submits (including its -quick
// reductions), via the figNConfigs planners the drivers themselves use.
func figureConfigs(fig string, quick bool, seed int64) ([]RunConfig, error) {
	var wls []*workloads.Workload
	var classes []workloads.InputClass
	if quick {
		wls = []*workloads.Workload{workloads.Text2SpeechCensoring(), workloads.ImageProcessing()}
		classes = []workloads.InputClass{workloads.Small}
	}
	switch fig {
	case "fig7":
		cfgs, _, _ := fig7Plan(fig7Defaults(Fig7Options{Seed: seed, Workloads: wls, Classes: classes}))
		return cfgs, nil
	case "fig8":
		return fig8Configs(fig8Defaults(Fig8Options{Seed: seed, Workloads: wls, Classes: classes})), nil
	case "fig9":
		opt := Fig9Options{Seed: seed, Workloads: wls, Classes: classes}
		if quick {
			opt.Factors = []float64{1e-4, 1e-3, 1e-2}
		}
		return fig9Configs(fig9Defaults(opt)), nil
	case "fig10":
		opt := Fig10Options{Seed: seed}
		if quick {
			opt.Tolerances = []float64{0, 5, 10}
		}
		return fig10Configs(fig10Defaults(opt)), nil
	}
	return nil, fmt.Errorf("eval: unknown figure preset %q (want one of %v)", fig, FigurePresets())
}
