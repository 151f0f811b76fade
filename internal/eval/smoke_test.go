package eval

import (
	"os"
	"testing"

	"caribou/internal/workloads"
)

func TestFig7SmokeOneWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	rows, err := Fig7(Fig7Options{
		Workloads: []*workloads.Workload{workloads.Text2SpeechCensoring()},
		Classes:   []workloads.InputClass{workloads.Small},
		PerDay:    96,
	})
	if err != nil {
		t.Fatal(err)
	}
	PrintFig7(os.Stdout, rows)
}

func TestExtensionsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	quick := Scale{Seed: 3, Quick: true}

	global, err := ExtGlobal(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(global) != 2 || global[0].GlobalNormalized <= 0 {
		t.Fatalf("global rows = %+v", global)
	}
	if global[0].GlobalNormalized > global[0].NANormalized*1.05 {
		t.Errorf("global set should not be worse than NA: %+v", global[0])
	}

	temporal, err := ExtTemporal(quick)
	if err != nil {
		t.Fatal(err)
	}
	tr := temporal[0]
	if !(tr.Combined <= tr.Geospatial+1e-9 && tr.Combined <= tr.Temporal+1e-9) {
		t.Errorf("combined shifting must dominate both: %+v", tr)
	}
	if tr.Temporal >= 1 || tr.Geospatial >= 1 {
		t.Errorf("both strategies should save carbon: %+v", tr)
	}

	signal, err := ExtSignal(quick)
	if err != nil {
		t.Fatal(err)
	}
	if signal[0].MCIPlanACICarbon < 0.99 {
		t.Errorf("MCI-driven plans should not beat ACI plans on ACI accounting: %+v", signal[0])
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	solverRows, err := AblationSolver(Scale{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(solverRows) == 0 {
		t.Fatal("no solver ablation rows")
	}
	for _, r := range solverRows {
		if r.Normalized <= 0 || r.Normalized > 1.01 {
			t.Errorf("%s/%s normalized = %v", r.Workload, r.Strategy, r.Normalized)
		}
	}
	forecastRows, err := AblationForecast(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(forecastRows) != 9 {
		t.Fatalf("forecast rows = %d", len(forecastRows))
	}
}
