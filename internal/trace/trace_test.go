package trace

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2023, 10, 16, 0, 0, 0, 0, time.UTC) // a Monday

func TestGenerateVolumeMatchesProfile(t *testing.T) {
	p := Uniform(1600)
	events, err := Generate(p, t0, t0.Add(7*24*time.Hour), 1)
	if err != nil {
		t.Fatal(err)
	}
	perDay := float64(len(events)) / 7
	if math.Abs(perDay-1600)/1600 > 0.05 {
		t.Errorf("daily volume = %.0f, want ~1600", perDay)
	}
}

func TestGenerateSortedAndInWindow(t *testing.T) {
	events, err := Generate(AzureP5(), t0, t0.Add(48*time.Hour), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		if e.At.Before(t0) || !e.At.Before(t0.Add(48*time.Hour)) {
			t.Fatalf("event %d outside window: %v", i, e.At)
		}
		if i > 0 && e.At.Before(events[i-1].At) {
			t.Fatalf("events unsorted at %d", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(AzureP5(), t0, t0.Add(24*time.Hour), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(AzureP5(), t0, t0.Add(24*time.Hour), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].At.Equal(b[i].At) || a[i].Large != b[i].Large {
			t.Fatalf("event %d differs", i)
		}
	}
	c, err := Generate(AzureP5(), t0, t0.Add(24*time.Hour), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) {
		same := true
		for i := range a {
			if !a[i].At.Equal(c[i].At) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical trace")
		}
	}
}

func TestDiurnalModulation(t *testing.T) {
	p := AzureP5()
	peak := p.HourlyRate(t0.Add(time.Duration(p.PeakHourUTC) * time.Hour))
	trough := p.HourlyRate(t0.Add(time.Duration(math.Mod(p.PeakHourUTC+12, 24)) * time.Hour))
	if peak <= trough {
		t.Errorf("peak %v <= trough %v", peak, trough)
	}
}

func TestWeekendDip(t *testing.T) {
	p := AzureP5()
	monday := p.HourlyRate(t0.Add(10 * time.Hour))
	saturday := p.HourlyRate(t0.Add(5*24*time.Hour + 10*time.Hour))
	if saturday >= monday {
		t.Errorf("saturday rate %v >= monday %v", saturday, monday)
	}
	want := monday * (1 - p.WeekendDip)
	if math.Abs(saturday-want) > 1e-9 {
		t.Errorf("saturday = %v, want %v", saturday, want)
	}
}

func TestLargeFraction(t *testing.T) {
	p := Uniform(2000)
	p.LargeFraction = 0.25
	events, err := Generate(p, t0, t0.Add(7*24*time.Hour), 3)
	if err != nil {
		t.Fatal(err)
	}
	large := 0
	for _, e := range events {
		if e.Large {
			large++
		}
	}
	frac := float64(large) / float64(len(events))
	if math.Abs(frac-0.25) > 0.03 {
		t.Errorf("large fraction = %.3f, want ~0.25", frac)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Uniform(100), t0, t0, 1); err == nil {
		t.Error("want error for empty window")
	}
	if _, err := Generate(Profile{}, t0, t0.Add(time.Hour), 1); err == nil {
		t.Error("want error for zero rate")
	}
}

func TestHourlyRateNeverNegative(t *testing.T) {
	p := Profile{DailyInvocations: 240, DiurnalAmplitude: 2.0, PeakHourUTC: 12}
	for h := 0; h < 24; h++ {
		if r := p.HourlyRate(t0.Add(time.Duration(h) * time.Hour)); r < 0 {
			t.Fatalf("hour %d rate %v", h, r)
		}
	}
}
