package eval

import (
	"fmt"
	"io"

	"caribou/internal/carbon"
	"caribou/internal/stats"
	"caribou/internal/workloads"
)

// Fig 9: geometric-mean normalized carbon across the five workflows for
// different transmission energy factors, under two factor structures:
// equal intra/inter-region factors and free intra-region transmission.

// Fig9Point is one sweep sample.
type Fig9Point struct {
	Scenario  string // "equal" or "free-intra"
	Class     workloads.InputClass
	FactorKWh float64
	// Geomean of Caribou's carbon normalized to the home deployment.
	Geomean float64
}

// fig9Factors spans the figure's x-axis (kWh/GB) at scale s.
func fig9Factors(s Scale) []float64 {
	return pick(s, []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1}, []float64{1e-4, 1e-3, 1e-2})
}

// fig9Model is one factor structure of the sweep.
type fig9Model struct {
	name string
	mk   func(f float64) carbon.TransmissionModel
}

func fig9Models() []fig9Model {
	return []fig9Model{
		{"equal", carbon.Uniform},
		{"free-intra", carbon.FreeIntra},
	}
}

// fig9Configs enumerates the sweep's runs at scale s: two configs per
// (model, class, factor, workload), home then fine.
func fig9Configs(s Scale) []RunConfig {
	var cfgs []RunConfig
	for _, m := range fig9Models() {
		for _, class := range s.classes() {
			for _, f := range fig9Factors(s) {
				tx := m.mk(f)
				for _, wl := range s.workloads() {
					cfgs = append(cfgs,
						RunConfig{
							Workload: wl, Class: class,
							Strategy: CoarseIn("aws:us-east-1"),
							PlanTx:   tx, Seed: s.Seed,
						},
						RunConfig{
							Workload: wl, Class: class,
							Strategy: Fine,
							PlanTx:   tx, Seed: s.Seed,
						})
				}
			}
		}
	}
	return cfgs
}

// Fig9 runs the sweep. For each (scenario, factor, class) the geometric
// mean is over workloads of Caribou-fine carbon normalized to the home
// deployment, both accounted under the swept factor model.
func Fig9(s Scale) ([]Fig9Point, error) {
	// The home run is coarse, so the memo collapses the whole sweep's
	// baselines to one execution per (workload, class).
	results, err := s.Pool.orDefault().RunAll(fig9Configs(s))
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}

	var points []Fig9Point
	i := 0
	wls := s.workloads()
	for _, m := range fig9Models() {
		for _, class := range s.classes() {
			for _, f := range fig9Factors(s) {
				tx := m.mk(f)
				var norms []float64
				for range wls {
					home, fine := results[i], results[i+1]
					i += 2
					homeSum, err := home.Summarize(tx)
					if err != nil {
						return nil, err
					}
					fineSum, err := fine.Summarize(tx)
					if err != nil {
						return nil, err
					}
					if homeSum.MeanCarbonG > 0 {
						norms = append(norms, fineSum.MeanCarbonG/homeSum.MeanCarbonG)
					}
				}
				g, err := stats.GeometricMean(norms)
				if err != nil {
					return nil, err
				}
				points = append(points, Fig9Point{
					Scenario: m.name, Class: class, FactorKWh: f, Geomean: g,
				})
			}
		}
	}
	return points, nil
}

// PrintFig9 renders the sweep.
func PrintFig9(w io.Writer, points []Fig9Point) {
	fmt.Fprintf(w, "Fig 9 — geomean normalized carbon vs transmission energy factor\n")
	fmt.Fprintf(w, "%-12s %-6s %12s %10s\n", "scenario", "class", "kWh/GB", "geomean")
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %-6s %12.0e %10.3f\n", p.Scenario, p.Class, p.FactorKWh, p.Geomean)
	}
}
