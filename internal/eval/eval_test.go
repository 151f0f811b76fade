package eval

import (
	"strings"
	"testing"
	"time"

	"caribou/internal/region"
	"caribou/internal/workloads"
)

func TestTable1MatchesWorkloads(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	if !byName["text2speech-censoring"].Sync || !byName["text2speech-censoring"].Cond {
		t.Error("text2speech features wrong")
	}
	if !byName["video-analytics"].Sync || byName["video-analytics"].Cond {
		t.Error("video-analytics features wrong")
	}
	if byName["dna-visualization"].Stages != 1 {
		t.Error("dna stages wrong")
	}
	var sb strings.Builder
	PrintTable1(&sb, rows)
	if !strings.Contains(sb.String(), "dna-visualization") {
		t.Error("print output missing rows")
	}
}

func TestTable2CaribouRow(t *testing.T) {
	rows := Table2()
	var caribou *Table2Row
	for i := range rows {
		if rows[i].Framework == "Caribou" {
			caribou = &rows[i]
		}
	}
	if caribou == nil {
		t.Fatal("Caribou row missing")
	}
	// The implementation must actually have every capability the row
	// claims; the structural ones are checkable here.
	if !caribou.DynMigration || !caribou.Geospatial || !caribou.MultiStage ||
		!caribou.ControlFlow || !caribou.SyncNodes || !caribou.TxOverhead {
		t.Errorf("Caribou capabilities incomplete: %+v", caribou)
	}
	if caribou.Granularity != "fine" {
		t.Errorf("granularity = %s", caribou.Granularity)
	}
	var sb strings.Builder
	PrintTable2(&sb, rows)
	if !strings.Contains(sb.String(), "GreenCourier") {
		t.Error("print output missing rows")
	}
}

func TestFig2SeriesShape(t *testing.T) {
	series, err := Fig2(Fig2Options{
		From:      time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC),
		To:        time.Date(2023, 10, 8, 0, 0, 0, 0, time.UTC),
		StepHours: 1,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Values) != 7*24 {
			t.Errorf("%s: %d samples", s.Region, len(s.Values))
		}
		for _, v := range s.Values {
			if v <= 0 {
				t.Fatalf("%s: non-positive intensity", s.Region)
			}
		}
	}
	var sb strings.Builder
	PrintFig2(&sb, series)
	if len(sb.String()) == 0 {
		t.Error("empty print output")
	}
}

func TestFig2StatsCalibration(t *testing.T) {
	stats, err := Fig2Stats(17)
	if err != nil {
		t.Fatal(err)
	}
	east := stats[region.USEast1]
	ca := stats[region.CACentral1]
	if r := ca / east; r < 0.05 || r > 0.13 {
		t.Errorf("ca/east = %.3f, want ~0.085", r)
	}
}

func TestStrategyString(t *testing.T) {
	if Fine.String() != "fine" {
		t.Errorf("fine = %q", Fine.String())
	}
	if got := CoarseIn(region.USWest2).String(); got != "coarse(us-west-2)" {
		t.Errorf("coarse = %q", got)
	}
}

func TestFig7StrategiesCoverPaperLegend(t *testing.T) {
	strats := Fig7Strategies()
	if len(strats) != 9 {
		t.Fatalf("strategies = %d, want 9", len(strats))
	}
	coarse, fine := 0, 0
	for _, s := range strats {
		if s.Coarse != "" {
			coarse++
		} else {
			fine++
		}
		if len(s.Regions) == 0 {
			t.Errorf("%s: empty region set", s.Name)
		}
	}
	if coarse != 4 || fine != 5 {
		t.Errorf("coarse=%d fine=%d", coarse, fine)
	}
}

func TestSummarizeFig12(t *testing.T) {
	rows := []Fig12Row{
		{"wf", workloads.Small, "stepfunctions", 1.0, 1.1},
		{"wf", workloads.Small, "sns", 1.2, 1.3},
		{"wf", workloads.Small, "caribou", 1.21, 1.31},
	}
	out := SummarizeFig12(rows)
	if len(out) != 1 {
		t.Fatalf("overheads = %d", len(out))
	}
	o := out[0]
	if o.SFFasterThanSNSPct < 15 || o.SFFasterThanSNSPct > 18 {
		t.Errorf("SF faster = %.2f%%, want ~16.7%%", o.SFFasterThanSNSPct)
	}
	if o.CaribouOverSNSPct < 0.5 || o.CaribouOverSNSPct > 1.5 {
		t.Errorf("caribou over SNS = %.2f%%", o.CaribouOverSNSPct)
	}
	if o.CaribouOverSFPct < 20 || o.CaribouOverSFPct > 22 {
		t.Errorf("caribou over SF = %.2f%%", o.CaribouOverSFPct)
	}
}

func TestFig7GeomeansGrouping(t *testing.T) {
	rows := []Fig7Row{
		{Strategy: "fine(all)", Scenario: "best", Normalized: 0.25},
		{Strategy: "fine(all)", Scenario: "best", Normalized: 0.36},
		{Strategy: "fine(all)", Scenario: "worst", Normalized: 0.81},
		{Strategy: "coarse(us-east-1)", Scenario: "best", Normalized: 1},
	}
	gm := Fig7Geomeans(rows)
	if len(gm) != 2 {
		t.Fatalf("geomeans = %v", gm)
	}
	if gm["best"] < 0.29 || gm["best"] > 0.31 {
		t.Errorf("best geomean = %v, want 0.3", gm["best"])
	}
	if gm["worst"] != 0.81 {
		t.Errorf("worst geomean = %v", gm["worst"])
	}
}

// TestRunSmokeCoarse exercises the shared runner on the cheapest
// configuration: a coarse run needs no solver.
func TestRunSmokeCoarse(t *testing.T) {
	res, err := Run(RunConfig{
		Workload: workloads.DNAVisualization(),
		Class:    workloads.Small,
		Strategy: CoarseIn(region.CACentral1),
		PerDay:   48,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := res.Summarize(Scenarios()[0].Tx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Invocations == 0 || sum.Succeeded != sum.Invocations {
		t.Fatalf("summary = %+v", sum)
	}
	// Everything measured must have run in ca-central-1 (coarse, no
	// benchmarking traffic).
	for _, rec := range res.App.Records[res.Start:] {
		for _, e := range rec.Executions {
			if e.Region != region.CACentral1 {
				t.Fatalf("coarse run executed in %s", e.Region)
			}
		}
	}
}

func TestFig13bForecastHorizonDegrades(t *testing.T) {
	rows, err := fig13b([]int{1, 7}, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Average MAPE over regions per frequency: weekly solves (168 h
	// horizon) should forecast no better than daily (24 h).
	mape := map[int][]float64{}
	for _, r := range rows {
		mape[r.SolvesPerWeek] = append(mape[r.SolvesPerWeek], r.MAPEPct)
	}
	avg := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if avg(mape[1]) < avg(mape[7])*0.8 {
		t.Errorf("weekly-horizon MAPE %.2f unexpectedly beats daily %.2f", avg(mape[1]), avg(mape[7]))
	}
}
