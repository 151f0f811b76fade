package metrics

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/forecast"
	"caribou/internal/netmodel"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/workloads"
)

// zoneOutage is a synthetic source whose history for one zone ends at
// after: Hourly fails for any window of that zone reaching past it. Tests
// may move after forward, as a late feed would.
type zoneOutage struct {
	*carbon.SyntheticSource
	zone  string
	after time.Time
}

func (s *zoneOutage) Hourly(zone string, from, to time.Time) ([]float64, error) {
	if zone == s.zone && to.After(s.after) {
		return nil, fmt.Errorf("no history for %s after %s", zone, s.after)
	}
	return s.SyntheticSource.Hourly(zone, from, to)
}

func evaluationManager(t *testing.T, src carbon.Source) *Manager {
	t.Helper()
	cat, err := region.NorthAmerica().Subset(region.EvaluationFour())
	if err != nil {
		t.Fatal(err)
	}
	return New(workloads.Text2SpeechCensoring().DAG, region.USEast1, cat, netmodel.New(cat), src, pricing.DefaultBook())
}

// TestFailedRefreshKeepsForecasters: a refresh that fails for one of the
// four zones installs nothing, so every zone keeps forecasting from the
// models and trained-through hour of the last good refresh. Each pass
// uses a fresh manager, so no zone order lets a partial refresh slip by.
func TestFailedRefreshKeepsForecasters(t *testing.T) {
	_, base := newManager(t)
	t1, t2 := t0.Add(24*time.Hour), t0.Add(30*time.Hour)
	src := &zoneOutage{SyntheticSource: base, zone: "US-CAL-CISO", after: t1}
	for pass := 0; pass < 16; pass++ {
		m := evaluationManager(t, src)
		if err := m.RefreshForecasts(t1); err != nil {
			t.Fatal(err)
		}
		future := func() []float64 {
			var out []float64
			for _, id := range region.EvaluationFour() {
				for h := 1; h <= 24; h++ {
					v, err := m.IntensityAt(id, t2.Add(time.Duration(h)*time.Hour), t2)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, v)
				}
			}
			return out
		}
		want := future()
		if err := m.RefreshForecasts(t2); err == nil {
			t.Fatal("refresh without US-CAL-CISO history succeeded")
		}
		got := future()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: a failed refresh moved %s's forecast %dh ahead from %v to %v",
					pass, region.EvaluationFour()[i/24], i%24+1, want[i], got[i])
			}
		}
		if !m.forecastAt.Equal(t1) {
			t.Fatalf("pass %d: trained through %v after a failed refresh, want %v", pass, m.forecastAt, t1)
		}
	}
	// Once the history exists, the same refresh succeeds: failures are
	// not remembered.
	src.after = t2
	if err := evaluationManager(t, src).RefreshForecasts(t2); err != nil {
		t.Errorf("refresh after the history arrived: %v", err)
	}
}

// TestSharedForecastsConcurrent: managers on one shared source refreshing
// concurrently, at equal and different hours, share one model per (zone,
// trained-through hour), and each is bit-equal to a fresh forecast.Fit on
// the same week.
func TestSharedForecastsConcurrent(t *testing.T) {
	src, err := carbon.SharedSource(1, t0.Add(-8*24*time.Hour), t0.Add(8*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	hours := []time.Time{t0, t0.Add(90 * time.Minute), t0.Add(3 * 24 * time.Hour)}
	managers := make([]*Manager, 12)
	for i := range managers {
		managers[i] = evaluationManager(t, src)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(managers))
	for i, m := range managers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.RefreshForecasts(hours[i%len(hours)])
		}()
	}
	wg.Wait()
	for i, m := range managers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		first := managers[i%len(hours)]
		end := hours[i%len(hours)].Truncate(time.Hour)
		if len(m.forecasters) != 4 {
			t.Fatalf("manager %d fitted %d zones, want 4", i, len(m.forecasters))
		}
		for zone, model := range m.forecasters {
			if model != first.forecasters[zone] {
				t.Errorf("manager %d, %s through %v: not the shared model", i, zone, end)
			}
			series, err := src.Hourly(zone, end.Add(-7*24*time.Hour), end)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := forecast.Fit(series, 24)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(model, fresh) {
				t.Errorf("manager %d, %s through %v: shared model differs from a fresh fit", i, zone, end)
			}
		}
	}
}
