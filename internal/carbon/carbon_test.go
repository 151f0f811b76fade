package carbon

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"caribou/internal/region"
)

var (
	evalFrom = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)
	evalTo   = time.Date(2023, 10, 22, 0, 0, 0, 0, time.UTC)
)

func newSource(t *testing.T) *SyntheticSource {
	t.Helper()
	src, err := NewSyntheticSource(1, evalFrom, evalTo)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func avg(t *testing.T, src *SyntheticSource, zone string) float64 {
	t.Helper()
	v, err := src.Average(zone, evalFrom, evalTo)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCalibrationMatchesPaperStatistics checks the §2.1/§9.2 anchors: over
// the evaluation window ca-central-1 (CA-QC) averages ~91.5 % below
// us-east-1 (US-MIDA-PJM), us-west-1 (US-CAL-CISO) is a few percent below,
// and us-west-2 (US-NW-PACW) is comparable.
func TestCalibrationMatchesPaperStatistics(t *testing.T) {
	src := newSource(t)
	east := avg(t, src, "US-MIDA-PJM")
	qc := avg(t, src, "CA-QC")
	ciso := avg(t, src, "US-CAL-CISO")
	pacw := avg(t, src, "US-NW-PACW")

	if r := qc / east; r < 0.05 || r > 0.13 {
		t.Errorf("CA-QC/PJM ratio = %.3f, want ~0.085 (91.5%% lower)", r)
	}
	if r := ciso / east; r < 0.85 || r > 1.0 {
		t.Errorf("CISO/PJM ratio = %.3f, want slightly below 1 (6.1%% lower)", r)
	}
	if r := pacw / east; r < 0.85 || r > 1.12 {
		t.Errorf("PACW/PJM ratio = %.3f, want comparable", r)
	}
}

// TestSolarDiurnalSwing verifies the CISO solar trough: midday intensity
// is markedly lower than night-time intensity (§2.1), and much more so
// than for the hydro-dominated Quebec grid.
func TestSolarDiurnalSwing(t *testing.T) {
	src := newSource(t)
	swing := func(zone string, utcOffset int) float64 {
		var daySum, nightSum float64
		var dayN, nightN int
		for ts := evalFrom; ts.Before(evalTo); ts = ts.Add(time.Hour) {
			local := (ts.Hour() + utcOffset + 48) % 24
			v, err := src.At(zone, ts)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case local >= 11 && local <= 15:
				daySum += v
				dayN++
			case local >= 23 || local <= 3:
				nightSum += v
				nightN++
			}
		}
		return (nightSum / float64(nightN)) / (daySum / float64(dayN))
	}
	ciso := swing("US-CAL-CISO", -8)
	qc := swing("CA-QC", -5)
	if ciso < 1.3 {
		t.Errorf("CISO night/day ratio = %.2f, want strong solar swing > 1.3", ciso)
	}
	if qc > 1.15 {
		t.Errorf("CA-QC night/day ratio = %.2f, want nearly flat", qc)
	}
	if ciso <= qc {
		t.Errorf("CISO swing (%.2f) should exceed QC swing (%.2f)", ciso, qc)
	}
}

func TestSourceDeterminism(t *testing.T) {
	a := newSource(t)
	b := newSource(t)
	for ts := evalFrom; ts.Before(evalFrom.Add(48 * time.Hour)); ts = ts.Add(time.Hour) {
		va, _ := a.At("US-MIDA-PJM", ts)
		vb, _ := b.At("US-MIDA-PJM", ts)
		if va != vb {
			t.Fatalf("same seed diverged at %v: %v vs %v", ts, va, vb)
		}
	}
	c, err := NewSyntheticSource(2, evalFrom, evalTo)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for ts := evalFrom; ts.Before(evalFrom.Add(48 * time.Hour)); ts = ts.Add(time.Hour) {
		va, _ := a.At("US-MIDA-PJM", ts)
		vc, _ := c.At("US-MIDA-PJM", ts)
		if va != vc {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical noise")
	}
}

func TestSourceErrors(t *testing.T) {
	src := newSource(t)
	if _, err := src.At("XX-NOWHERE", evalFrom); err == nil {
		t.Error("want unknown-zone error")
	}
	if _, err := src.At("CA-QC", evalFrom.Add(-time.Hour)); err == nil {
		t.Error("want out-of-horizon error (before)")
	}
	if _, err := src.At("CA-QC", evalTo.Add(time.Hour)); err == nil {
		t.Error("want out-of-horizon error (after)")
	}
	if _, err := NewSyntheticSource(1, evalTo, evalFrom); err == nil {
		t.Error("want error when end precedes start")
	}
}

func TestHourlyFloorLookup(t *testing.T) {
	src := newSource(t)
	a, _ := src.At("CA-QC", evalFrom.Add(10*time.Minute))
	b, _ := src.At("CA-QC", evalFrom.Add(50*time.Minute))
	if a != b {
		t.Error("values within one hour should be identical")
	}
}

func TestIntensityAboveFloor(t *testing.T) {
	src := newSource(t)
	cat := region.Global()
	for _, id := range cat.IDs() {
		r, _ := cat.Get(id)
		zone := r.GridZone
		hs, err := src.Hourly(zone, evalFrom, evalTo)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range hs {
			if v <= 0 {
				t.Fatalf("%s hour %d: non-positive intensity %v", zone, i, v)
			}
		}
	}
}

func TestExecutionEnergyKnownValue(t *testing.T) {
	// One vCPU (1769 MB) for 3600 s at full utilization:
	// E_mem = 3.725e-4 * (1769/1024) * 1 = 6.435e-4 kWh
	// E_proc = 3.5e-3 * 1 * 1 = 3.5e-3 kWh
	got := ExecutionEnergyKWh(1769, 3600, 1.0)
	want := MemPowerKWPerGB*(1769.0/1024) + PMaxKWPerVCPU
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("energy = %v, want %v", got, want)
	}
}

func TestExecutionCarbonAppliesPUEAndIntensity(t *testing.T) {
	e := ExecutionEnergyKWh(1769, 3600, 0.5)
	got := ExecutionCarbon(400, 1769, 3600, 0.5)
	want := 400 * e * PUE
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("carbon = %v, want %v", got, want)
	}
}

// TestExecutionFactorsBitIdentical pins the hoisted-coefficient form to
// the direct model: exact equality (not tolerance) across a grid that
// covers the clamping edges, because the Monte Carlo tape replay relies
// on the two computing the same float64 in the same operation order.
// fromFactors is that replay's arithmetic on ExecutionFactors' output.
func TestExecutionFactorsBitIdentical(t *testing.T) {
	fromFactors := func(intensity, memKW, procKW, durationSec float64) float64 {
		if durationSec < 0 {
			durationSec = 0
		}
		hours := durationSec / 3600
		return intensity * (memKW*hours + procKW*hours) * PUE
	}
	mems := []float64{-5, 0, 128, 1024, 1769, 10240}
	utils := []float64{-0.5, 0, 0.3, 0.8, 1, 2}
	durs := []float64{-1, 0, 1e-6, 0.37, 3, 3600, 1e5}
	intensities := []float64{0, 35, 400, 1123.456}
	for _, mem := range mems {
		for _, util := range utils {
			memKW, procKW := ExecutionFactors(mem, util)
			for _, dur := range durs {
				for _, in := range intensities {
					want := ExecutionCarbon(in, mem, dur, util)
					got := fromFactors(in, memKW, procKW, dur)
					if got != want {
						t.Fatalf("mem=%v util=%v dur=%v in=%v: factored %v != direct %v",
							mem, util, dur, in, got, want)
					}
				}
			}
		}
	}
}

func TestExecutionClamping(t *testing.T) {
	if ExecutionEnergyKWh(-5, 10, 0.5) != 0 {
		t.Error("negative memory should clamp to zero energy")
	}
	if ExecutionEnergyKWh(1769, -1, 0.5) != 0 {
		t.Error("negative duration should clamp to zero energy")
	}
	over := ExecutionEnergyKWh(1769, 100, 2.0)
	atMax := ExecutionEnergyKWh(1769, 100, 1.0)
	if over != atMax {
		t.Error("utilization should clamp at 1")
	}
}

func TestQuickExecutionCarbonMonotonic(t *testing.T) {
	f := func(mem16, dur16 uint16, util8 uint8) bool {
		mem := float64(mem16)
		dur := float64(dur16)
		util := float64(util8) / 255
		base := ExecutionEnergyKWh(mem, dur, util)
		return ExecutionEnergyKWh(mem+128, dur, util) >= base &&
			ExecutionEnergyKWh(mem, dur+60, util) >= base &&
			ExecutionEnergyKWh(mem, dur, math.Min(util+0.1, 1)) >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransmissionScenarios(t *testing.T) {
	best, worst := BestCase(), WorstCase()
	const gb = 1e9

	// Inter-region, equal endpoint intensities: route = intensity.
	if got, want := best.Carbon(400, 400, false, gb), 400*0.001; math.Abs(got-want) > 1e-9 {
		t.Errorf("best inter = %v, want %v", got, want)
	}
	if got, want := worst.Carbon(400, 400, false, gb), 400*0.005; math.Abs(got-want) > 1e-9 {
		t.Errorf("worst inter = %v, want %v", got, want)
	}
	// Intra-region: free only in the worst case.
	if got := worst.Carbon(400, 400, true, gb); got != 0 {
		t.Errorf("worst intra = %v, want 0", got)
	}
	if got := best.Carbon(400, 400, true, gb); got <= 0 {
		t.Errorf("best intra = %v, want > 0", got)
	}
	// Route intensity is the endpoint average.
	got := best.Carbon(100, 300, false, gb)
	if want := 200 * 0.001; math.Abs(got-want) > 1e-9 {
		t.Errorf("route average: %v, want %v", got, want)
	}
	// Zero or negative bytes are free.
	if best.Carbon(400, 400, false, 0) != 0 || best.Carbon(400, 400, false, -5) != 0 {
		t.Error("non-positive bytes should be free")
	}
}

func TestUniformAndFreeIntraConstructors(t *testing.T) {
	u := Uniform(0.002)
	if u.InterRegionKWhPerGB != 0.002 || u.IntraRegionKWhPerGB != 0.002 {
		t.Errorf("Uniform = %+v", u)
	}
	f := FreeIntra(0.003)
	if f.InterRegionKWhPerGB != 0.003 || f.IntraRegionKWhPerGB != 0 {
		t.Errorf("FreeIntra = %+v", f)
	}
}

func TestQuickTransmissionLinearInBytes(t *testing.T) {
	m := BestCase()
	f := func(b16 uint16) bool {
		b := float64(b16)
		one := m.Carbon(300, 500, false, b)
		two := m.Carbon(300, 500, false, 2*b)
		return math.Abs(two-2*one) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHorizonAccessors(t *testing.T) {
	src := newSource(t)
	last := evalTo.Add(-time.Hour)
	if _, err := src.At("CA-QC", evalFrom); err != nil {
		t.Errorf("At(evalFrom): %v", err)
	}
	if _, err := src.At("CA-QC", last); err != nil {
		t.Errorf("At(evalTo-1h): %v", err)
	}
	if _, err := src.At("CA-QC", evalTo); err == nil {
		t.Error("At(evalTo) should be outside the horizon")
	}
	if _, err := src.Hourly("CA-QC", last, evalTo); err != nil {
		t.Errorf("Hourly(evalTo-1h, evalTo): %v", err)
	}
	if _, err := src.Hourly("CA-QC", evalTo, evalTo.Add(time.Hour)); err == nil {
		t.Error("Hourly(evalTo, evalTo+1h) should be outside the horizon")
	}
}
