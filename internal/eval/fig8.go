package eval

import (
	"fmt"
	"io"

	"caribou/internal/carbon"
	"caribou/internal/workloads"
)

// Fig 8: geospatial shifting offers more carbon savings as the
// execution-to-transmission carbon ratio grows. Each point is one
// (workload, input size, scenario): x is the home deployment's
// execution/transmission carbon ratio, y is Caribou's carbon normalized
// to the home deployment.

// Fig8Point is one scatter point.
type Fig8Point struct {
	Workload   string
	Class      workloads.InputClass
	Scenario   string
	Ratio      float64 // execution carbon / transmission carbon at home
	Normalized float64 // fine(all) carbon / home carbon
}

// fig8Configs enumerates the figure's runs at scale s: two configs per
// (workload, class, scenario), home then fine.
func fig8Configs(s Scale) []RunConfig {
	var cfgs []RunConfig
	for _, wl := range s.workloads() {
		for _, class := range s.classes() {
			for _, sc := range Scenarios() {
				cfgs = append(cfgs,
					RunConfig{
						Workload: wl, Class: class,
						Strategy: CoarseIn("aws:us-east-1"),
						PlanTx:   sc.Tx, Seed: s.Seed,
					},
					RunConfig{
						Workload: wl, Class: class,
						Strategy: Fine,
						PlanTx:   sc.Tx, Seed: s.Seed,
					})
			}
		}
	}
	return cfgs
}

// Fig8 runs home and fine(all) per combination and derives the scatter.
// The home deployment is coarse and scenario-independent, so the memo
// collapses it to one execution per (workload, class).
func Fig8(s Scale) ([]Fig8Point, error) {
	results, err := s.Pool.orDefault().RunAll(fig8Configs(s))
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}

	var points []Fig8Point
	i := 0
	for _, wl := range s.workloads() {
		for _, class := range s.classes() {
			for _, sc := range Scenarios() {
				home, fine := results[i], results[i+1]
				i += 2
				// Ratio uses the uniform best-case factor so intra-region
				// transfers are visible in the denominator even in the
				// worst-case scenario (the paper computes the ratio from
				// modeled energy of the collected execution data).
				homeSum, err := home.Summarize(carbon.BestCase())
				if err != nil {
					return nil, err
				}
				homeScen, err := home.Summarize(sc.Tx)
				if err != nil {
					return nil, err
				}
				fineSum, err := fine.Summarize(sc.Tx)
				if err != nil {
					return nil, err
				}
				norm := 0.0
				if homeScen.MeanCarbonG > 0 {
					norm = fineSum.MeanCarbonG / homeScen.MeanCarbonG
				}
				points = append(points, Fig8Point{
					Workload: wl.Name, Class: class, Scenario: sc.Name,
					Ratio:      homeSum.ExecToTxRatio(),
					Normalized: norm,
				})
			}
		}
	}
	return points, nil
}

// PrintFig8 renders the scatter points.
func PrintFig8(w io.Writer, points []Fig8Point) {
	fmt.Fprintf(w, "Fig 8 — normalized carbon vs execution/transmission carbon ratio\n")
	fmt.Fprintf(w, "%-24s %-6s %-6s %12s %12s\n", "workload", "class", "scen", "exec/tx", "normalized")
	for _, p := range points {
		fmt.Fprintf(w, "%-24s %-6s %-6s %12.3f %12.3f\n", p.Workload, p.Class, p.Scenario, p.Ratio, p.Normalized)
	}
}
