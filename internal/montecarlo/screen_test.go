package montecarlo_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"caribou/internal/montecarlo"
	"caribou/internal/region"
	"caribou/internal/workloads"
)

// checkScreen holds one plan's screen row against the reference: wherever
// the first block's statistics prove a stop, Estimate(plan, h) — the whole
// stopping rule, priced sample by sample — must have halted at the first
// boundary, converged, with a CarbonMean within 1e-12 relative of the
// predicted one. It returns how many hours were proven.
func checkScreen(t *testing.T, name string, snap *montecarlo.Snapshot, assign []int) (proven int) {
	t.Helper()
	scr, err := snap.ScreenRow(assign)
	if err != nil {
		t.Fatal(err)
	}
	if len(scr) != snap.NumHours() {
		t.Fatalf("%s: screen row covers %d of %d hours", name, len(scr), snap.NumHours())
	}
	for h, mean := range scr {
		if math.IsInf(mean, -1) {
			continue
		}
		proven++
		est, err := snap.Estimate(assign, h)
		if err != nil {
			t.Fatal(err)
		}
		if est.Samples != montecarlo.BatchSize || !est.Converged {
			t.Fatalf("%s plan %v hour %d: stop proven, but the reference took %d samples (converged=%v)", name, assign, h, est.Samples, est.Converged)
		}
		if d := math.Abs(est.CarbonMean - mean); !(d <= 1e-12*math.Abs(est.CarbonMean)) {
			t.Fatalf("%s plan %v hour %d: predicted carbon mean %v, reference %v (relative distance %g)", name, assign, h, mean, est.CarbonMean, d/math.Abs(est.CarbonMean))
		}
	}
	return proven
}

func randomPlans(snap *montecarlo.Snapshot, seed int64, n int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	plans := [][]int{snap.HomeAssign()}
	for len(plans) < n {
		a := make([]int, snap.NumNodes())
		for i := range a {
			a[i] = rng.Intn(snap.Regions())
		}
		plans = append(plans, a)
	}
	return plans
}

// TestScreenIsSound is the screen statistics' contract, on every row
// fixture × 40 seeded plans × 24 hours, and then on hand-built hour tables
// the synthetic grid never produces: a region at zero intensity, one region
// dominating every other by six orders, and negative entries — where the
// deviation ceiling is only a ceiling because it sums |a_j|·D_j, and where
// an hour whose terms cancel must be left unproven rather than predicted
// badly. The converged fixtures must prove stops and the heavy-tail ones
// (shared CVs fail at the first boundary) none.
func TestScreenIsSound(t *testing.T) {
	for _, f := range rowFixtures(t) {
		proven := 0
		for _, a := range randomPlans(f.snap, 5, 40) {
			proven += checkScreen(t, f.name, f.snap, a)
		}
		switch heavy := strings.HasPrefix(f.name, "heavytail"); {
		case heavy && proven != 0:
			t.Errorf("%s: %d stops proven on a bypass fixture", f.name, proven)
		case !heavy && proven == 0:
			t.Errorf("%s: no stop was ever proven: the check is vacuous", f.name)
		}
	}

	// Hand-built signals on a private snapshot: hour 0 untouched, then one
	// table per hour.
	snap := learnSnapshot(t, workloads.Text2SpeechCensoring(), region.USEast1)
	nR := snap.Regions()
	tables := map[string]func(inten, rf []float64){
		"zero-intensity region": func(inten, rf []float64) {
			inten[1] = 0
			for r := 0; r < nR; r++ {
				rf[1*nR+r], rf[r*nR+1] = 0, 0
			}
		},
		"all-zero hour": func(inten, rf []float64) {
			clear(inten)
			clear(rf)
		},
		"dominating region": func(inten, rf []float64) { inten[2] *= 1e6 },
		"negative region":   func(inten, rf []float64) { inten[3] = -0.4 * inten[3] },
		"negative route":    func(inten, rf []float64) { rf[0*nR+3] = -rf[0*nR+3] },
		"cancelling hour": func(inten, rf []float64) {
			for r := range inten {
				inten[r] = float64(1-2*(r%2)) * 100
			}
			clear(rf)
		},
	}
	h, names := 1, make([]string, snap.NumHours())
	for name, edit := range tables {
		inten, rf := snap.HourTables(h)
		edit(inten, rf)
		names[h] = name
		h++
	}
	provenAt := make([]int, snap.NumHours())
	for _, a := range randomPlans(snap, 9, 40) {
		scr, err := snap.ScreenRow(a)
		if err != nil {
			t.Fatal(err)
		}
		checkScreen(t, "hand-built", snap, a)
		for h, m := range scr {
			if !math.IsInf(m, -1) {
				provenAt[h]++
			}
		}
	}
	for h, name := range names {
		if name != "" && name != "cancelling hour" && provenAt[h] == 0 {
			t.Errorf("hour table %q: no plan's stop was proven: the case is not covered", name)
		}
	}
}
