package eval

import (
	"fmt"
	"io"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/core"
	"caribou/internal/dag"
	"caribou/internal/executor"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/solver"
	"caribou/internal/trace"
	"caribou/internal/workloads"
)

// Fig 11: week-long adaptive operation of Caribou on Text2Speech
// Censoring with the large input under an Azure-style invocation trace:
// the Deployment Manager's plan generations over time, the region hosting
// most workflow stages per hour, and Caribou's carbon relative to coarse
// single-region deployments.

// Fig11Bin is one time bin of the week-long series.
type Fig11Bin struct {
	Start time.Time
	// MajorityRegion hosts the most stage executions in this bin under
	// Caribou.
	MajorityRegion region.ID
	// RelCarbon maps each treatment ("caribou", "us-west-1", ...) to
	// carbon relative to coarse us-east-1 within this bin.
	RelCarbon map[string]float64
	// Invocations counts Caribou invocations completing in the bin.
	Invocations int
}

// Fig11Result is the figure's content for one transmission scenario.
type Fig11Result struct {
	Scenario   string
	Bins       []Fig11Bin
	SolveTimes []time.Time
	Overhead   float64 // framework carbon, grams
}

// fig11Bin is the width of one time bin of the series.
const fig11Bin = 6 * time.Hour

// Fig11 runs the continuous evaluation for both transmission scenarios:
// six days at half the Azure P5 rate (which keeps the run fast while
// preserving shape), or three days at 300 a day under Quick. Its bespoke
// trace-driven runs are not RunConfig-shaped, so they ride the pool's
// generic job lane.
func Fig11(s Scale) ([]Fig11Result, error) {
	days, seed := pick(s, 6, 3), s.seed()
	profile := trace.AzureP5()
	profile.DailyInvocations = pick(s, 800.0, 300.0)
	profile.LargeFraction = 1 // the figure uses the large input size

	wl := workloads.Text2SpeechCensoring()
	start := EvalStart
	end := start.Add(time.Duration(days) * 24 * time.Hour)
	events, err := trace.Generate(profile, start, end, seed)
	if err != nil {
		return nil, err
	}

	// All treatments run concurrently on the pool: the three coarse
	// baselines (scenario-independent, run once each) plus one adaptive
	// Caribou run per scenario. Each job owns an isolated Env; the trace
	// events slice is shared read-only.
	pool := s.Pool.orDefault()
	coarseRegions := []region.ID{region.USEast1, region.USWest1, region.USWest2}
	scens := Scenarios()
	outs := make([]*fig11Out, len(coarseRegions)+len(scens))
	err = pool.Do(len(outs), func(i int) error {
		if i < len(coarseRegions) {
			out, err := fig11Run(wl, events, start, end, seed, nil, coarseRegions[i])
			if err != nil {
				return fmt.Errorf("fig11 coarse %s: %w", coarseRegions[i], err)
			}
			outs[i] = out
			return nil
		}
		sc := scens[i-len(coarseRegions)]
		tx := sc.Tx
		out, err := fig11Run(wl, events, start, end, seed, &tx, "")
		if err != nil {
			return fmt.Errorf("fig11 caribou %s: %w", sc.Name, err)
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	coarse := map[string]*fig11Out{}
	for i, r := range coarseRegions {
		coarse[string(r)[4:]] = outs[i]
	}

	var results []Fig11Result
	for si, sc := range scens {
		tx := sc.Tx
		caribouOut := outs[len(coarseRegions)+si]
		res := Fig11Result{Scenario: sc.Name, SolveTimes: caribouOut.solves, Overhead: caribouOut.overhead}

		for t := start; t.Before(end); t = t.Add(fig11Bin) {
			binEnd := t.Add(fig11Bin)
			bin := Fig11Bin{Start: t, RelCarbon: map[string]float64{}}

			baseMean, baseN := binCarbon(coarse["us-east-1"], t, binEnd, tx)
			if baseN == 0 || baseMean == 0 {
				continue
			}
			for name, out := range coarse {
				if name == "us-east-1" {
					continue
				}
				m, n := binCarbon(out, t, binEnd, tx)
				if n > 0 {
					bin.RelCarbon[name] = m / baseMean
				}
			}
			cm, cn := binCarbon(caribouOut, t, binEnd, tx)
			if cn > 0 {
				bin.RelCarbon["caribou"] = cm / baseMean
			}
			bin.Invocations = cn
			bin.MajorityRegion = majorityRegion(caribouOut.records, t, binEnd)
			res.Bins = append(res.Bins, bin)
		}
		results = append(results, res)
	}
	return results, nil
}

// fig11Run executes the trace either adaptively (tx != nil) or coarse in
// region r.
// fig11Out carries one treatment's run.
type fig11Out struct {
	records  []*platform.InvocationRecord
	env      *core.Env
	overhead float64
	solves   []time.Time
}

func fig11Run(wl *workloads.Workload, events []trace.Event, start, end time.Time, seed int64, tx *carbon.TransmissionModel, coarse region.ID) (*fig11Out, error) {
	env, err := core.NewEnv(core.EnvConfig{
		Seed: seed, Start: start, End: end, Regions: region.EvaluationFour(),
	})
	if err != nil {
		return nil, err
	}
	cfg := core.AppConfig{
		Workload: wl,
		Home:     region.USEast1,
		Mode:     executor.ModeCaribou,
		Objective: solver.Objective{
			Priority:   solver.PriorityCarbon,
			Tolerances: solver.Tolerances{Latency: solver.Tol(25)},
		},
		Seed: seed,
	}
	adaptive := coarse == ""
	if adaptive {
		cfg.Adaptive = true
		cfg.Tx = *tx
	} else {
		cfg.BenchFraction = -1
	}
	app, err := env.NewApp(cfg)
	if err != nil {
		return nil, err
	}
	var solves []time.Time
	if adaptive {
		app.Manager.OnSolve = func(now time.Time, _ dag.HourlyPlans, _ []solver.Result) {
			solves = append(solves, now)
		}
		app.ScheduleManagerTicks(time.Hour)
	} else {
		plans := dag.Uniform(dag.NewHomePlan(wl.DAG, coarse))
		if _, err := app.DeployPlanRegions(plans); err != nil {
			return nil, err
		}
		app.SetStaticPlans(plans)
	}
	app.ScheduleTrace(events)
	env.Run()
	out := &fig11Out{records: app.Records, env: env, solves: solves}
	if app.Manager != nil {
		out.overhead = app.Manager.OverheadGrams
	}
	return out, nil
}

func binCarbon(out *fig11Out, from, to time.Time, tx carbon.TransmissionModel) (mean float64, n int) {
	var sum float64
	for _, r := range out.records {
		if r.End.Before(from) || !r.End.Before(to) {
			continue
		}
		e, t, err := r.CarbonGrams(out.env.Carbon, out.env.Cat, tx)
		if err != nil {
			continue
		}
		sum += e + t
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func majorityRegion(records []*platform.InvocationRecord, from, to time.Time) region.ID {
	counts := map[region.ID]int{}
	for _, r := range records {
		if r.End.Before(from) || !r.End.Before(to) {
			continue
		}
		for _, e := range r.Executions {
			counts[e.Region]++
		}
	}
	var best region.ID
	bestN := -1
	for r, n := range counts {
		if n > bestN || (n == bestN && r < best) {
			best, bestN = r, n
		}
	}
	return best
}

// PrintFig11 renders the decision/relative-carbon series.
func PrintFig11(w io.Writer, results []Fig11Result) {
	for _, res := range results {
		fmt.Fprintf(w, "Fig 11 — adaptive week, %s-case scenario (framework overhead %.2f g)\n", res.Scenario, res.Overhead)
		fmt.Fprintf(w, "DP generations at:")
		for _, t := range res.SolveTimes {
			fmt.Fprintf(w, " %s", t.Format("01-02 15:04"))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-18s %-16s %6s %10s %10s %10s\n",
			"bin", "majority-region", "inv", "caribou", "us-west-1", "us-west-2")
		for _, b := range res.Bins {
			fmt.Fprintf(w, "%-18s %-16s %6d %10.3f %10.3f %10.3f\n",
				b.Start.Format("01-02 15:04"), shortRegion(b.MajorityRegion), b.Invocations,
				b.RelCarbon["caribou"], b.RelCarbon["us-west-1"], b.RelCarbon["us-west-2"])
		}
		fmt.Fprintln(w)
	}
}

func shortRegion(r region.ID) string {
	if len(r) > 4 {
		return string(r)[4:]
	}
	return string(r)
}
