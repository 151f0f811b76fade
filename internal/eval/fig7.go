package eval

import (
	"fmt"
	"io"
	"sort"

	"caribou/internal/carbon"
	"caribou/internal/region"
	"caribou/internal/stats"
	"caribou/internal/workloads"
)

// Fig 7: normalized relative carbon versus deploying everything in
// us-east-1, for manual coarse single-region deployments and Caribou
// fine-grained deployments over different region sets, for both input
// sizes and both transmission-carbon scenarios.

// Fig7Row is one bar of Fig 7.
type Fig7Row struct {
	Workload   string
	Class      workloads.InputClass
	Strategy   string
	Scenario   string // "best" or "worst"
	Normalized float64
	// AbsoluteGrams is the per-invocation carbon before normalizing.
	AbsoluteGrams float64
}

// Fig7Strategies lists the deployment treatments in the figure's legend
// order.
func Fig7Strategies() []struct {
	Name    string
	Coarse  region.ID
	Regions []region.ID
} {
	e1, w1, w2, ca := region.USEast1, region.USWest1, region.USWest2, region.CACentral1
	return []struct {
		Name    string
		Coarse  region.ID
		Regions []region.ID
	}{
		{"coarse(us-east-1)", e1, []region.ID{e1}},
		{"coarse(us-west-1)", w1, []region.ID{e1, w1}},
		{"coarse(us-west-2)", w2, []region.ID{e1, w2}},
		{"coarse(ca-central-1)", ca, []region.ID{e1, ca}},
		{"fine(us-east-1,us-west-1)", "", []region.ID{e1, w1}},
		{"fine(us-east-1,us-west-2)", "", []region.ID{e1, w2}},
		{"fine(us-east-1,us-west-1,us-west-2)", "", []region.ID{e1, w1, w2}},
		{"fine(us-east-1,ca-central-1)", "", []region.ID{e1, ca}},
		{"fine(all)", "", []region.ID{e1, w1, w2, ca}},
	}
}

// Scenario is one of the paper's transmission-carbon accounting
// scenarios (the two bar styles of Fig 7).
type Scenario struct {
	Name string
	Tx   carbon.TransmissionModel
}

// Scenarios lists the accounting scenarios in figure legend order.
func Scenarios() []Scenario {
	return []Scenario{
		{"best", carbon.BestCase()},
		{"worst", carbon.WorstCase()},
	}
}

// Fig7Options scales the experiment.
type Fig7Options struct {
	Workloads []*workloads.Workload // default: all five
	Classes   []workloads.InputClass
	PerDay    int
	Seed      int64
	// Pool runs and memoizes the experiment's runs; nil uses a private
	// default-width pool.
	Pool *Pool
}

// fig7Defaults fills unset options with the figure's full scale.
func fig7Defaults(opt Fig7Options) Fig7Options {
	if len(opt.Workloads) == 0 {
		opt.Workloads = workloads.All()
	}
	if len(opt.Classes) == 0 {
		opt.Classes = workloads.Classes()
	}
	return opt
}

// fig7Options is the figure at scale s.
func fig7Options(s Scale) Fig7Options {
	return Fig7Options{Workloads: s.workloads(), Classes: s.classes(), Seed: s.Seed, Pool: s.Pool}
}

// fig7Group is one (workload, class) bar group.
type fig7Group struct {
	wl    *workloads.Workload
	class workloads.InputClass
}

// fig7Plan enumerates the figure's runs for already-defaulted options:
// one config per coarse strategy, one per (fine strategy, scenario); idx
// maps (group, strategy, scenario) to its config slot. ExpandSweep's
// fig7 preset expands the same plan, so a store it filled serves the
// figure driver without executing.
func fig7Plan(opt Fig7Options) (cfgs []RunConfig, idx map[[3]int]int, groups []fig7Group) {
	for _, wl := range opt.Workloads {
		for _, class := range opt.Classes {
			groups = append(groups, fig7Group{wl, class})
		}
	}
	strats, scens := Fig7Strategies(), Scenarios()
	idx = map[[3]int]int{}
	for gi, g := range groups {
		for si, strat := range strats {
			if strat.Coarse != "" {
				idx[[3]int{gi, si, 0}] = len(cfgs)
				cfgs = append(cfgs, RunConfig{
					Workload: g.wl, Class: g.class,
					Regions:  strat.Regions,
					Strategy: Strategy{Coarse: strat.Coarse},
					PerDay:   opt.PerDay, Seed: opt.Seed,
				})
				continue
			}
			for ci, sc := range scens {
				idx[[3]int{gi, si, ci}] = len(cfgs)
				cfgs = append(cfgs, RunConfig{
					Workload: g.wl, Class: g.class,
					Regions:  strat.Regions,
					Strategy: Fine,
					PlanTx:   sc.Tx,
					PerDay:   opt.PerDay, Seed: opt.Seed,
				})
			}
		}
	}
	return cfgs, idx, groups
}

// Fig7 runs the full geospatial-shifting comparison. The baseline of each
// (workload, class, scenario) group is the coarse us-east-1 run accounted
// under the same scenario. All runs of all groups execute concurrently on
// the pool; coarse deployments do not depend on the planning scenario, so
// each coarse strategy runs once per group and is re-accounted under both
// transmission models.
func Fig7(opt Fig7Options) ([]Fig7Row, error) {
	opt = fig7Defaults(opt)
	pool := opt.Pool.orDefault()
	cfgs, idx, groups := fig7Plan(opt)
	strats, scens := Fig7Strategies(), Scenarios()
	results, err := pool.RunAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}

	var rows []Fig7Row
	for gi, g := range groups {
		baseline := map[string]float64{} // scenario -> grams
		for si, strat := range strats {
			for ci, sc := range scens {
				res := results[idx[[3]int{gi, si, 0}]]
				if strat.Coarse == "" {
					res = results[idx[[3]int{gi, si, ci}]]
				}
				sum, err := res.Summarize(sc.Tx)
				if err != nil {
					return nil, fmt.Errorf("fig7 %s/%s: %w", g.wl.Name, g.class, err)
				}
				if strat.Name == "coarse(us-east-1)" {
					baseline[sc.Name] = sum.MeanCarbonG
				}
				base := baseline[sc.Name]
				norm := 0.0
				if base > 0 {
					norm = sum.MeanCarbonG / base
				}
				rows = append(rows, Fig7Row{
					Workload: g.wl.Name, Class: g.class, Strategy: strat.Name,
					Scenario: sc.Name, Normalized: norm, AbsoluteGrams: sum.MeanCarbonG,
				})
			}
		}
	}
	return rows, nil
}

// Fig7Geomeans summarizes the headline result: geometric-mean carbon
// reduction of the fine(all) strategy per scenario across workloads and
// classes (the paper reports 22.9 % worst-case and 66.6 % best-case).
func Fig7Geomeans(rows []Fig7Row) map[string]float64 {
	group := map[string][]float64{}
	for _, r := range rows {
		if r.Strategy == "fine(all)" && r.Normalized > 0 {
			group[r.Scenario] = append(group[r.Scenario], r.Normalized)
		}
	}
	out := map[string]float64{}
	for sc, xs := range group {
		g, err := stats.GeometricMean(xs)
		if err == nil {
			out[sc] = g
		}
	}
	return out
}

// PrintFig7 renders rows in the figure's grouping. The caller's slice is
// left untouched; sorting happens on a copy.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	rows = append([]Fig7Row(nil), rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		if rows[i].Class != rows[j].Class {
			return rows[i].Class < rows[j].Class
		}
		return false
	})
	fmt.Fprintf(w, "Fig 7 — carbon normalized to coarse(us-east-1), per transmission scenario\n")
	last := ""
	for _, r := range rows {
		key := r.Workload + "/" + string(r.Class)
		if key != last {
			fmt.Fprintf(w, "\n%s\n", key)
			last = key
		}
		fmt.Fprintf(w, "  %-40s %-6s %6.3f  (%.5f g/inv)\n", r.Strategy, r.Scenario, r.Normalized, r.AbsoluteGrams)
	}
	gm := Fig7Geomeans(rows)
	fmt.Fprintf(w, "\nGeomean fine(all): best-case %.3f (%.1f%% reduction), worst-case %.3f (%.1f%% reduction)\n",
		gm["best"], (1-gm["best"])*100, gm["worst"], (1-gm["worst"])*100)
}
