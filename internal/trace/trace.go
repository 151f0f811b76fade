// Package trace generates deterministic synthetic invocation traces
// matching the characterization of the 2021 Azure Functions trace used in
// the paper's continuous evaluations (§9.5, §9.7): a daily invocation
// volume around the 5th-percentile DAG (~1.6 K invocations/day) with
// diurnal modulation, weekend dips, and Poisson arrivals.
package trace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"caribou/internal/simclock"
)

// Profile shapes a synthetic trace.
type Profile struct {
	// DailyInvocations is the mean number of invocations per day.
	DailyInvocations float64
	// DiurnalAmplitude is the fractional swing of the daily cycle
	// (0 = flat, 0.5 = ±50 %).
	DiurnalAmplitude float64
	// PeakHourUTC is the hour of maximum rate.
	PeakHourUTC float64
	// WeekendDip is the fractional rate reduction on weekends.
	WeekendDip float64
	// LargeFraction is the probability that an invocation uses the
	// large input class.
	LargeFraction float64
}

// AzureP5 is the paper's reference workload: the 5th-percentile DAG from
// the Azure characterization with ~1.6 K average daily invocations.
func AzureP5() Profile {
	return Profile{
		DailyInvocations: 1600,
		DiurnalAmplitude: 0.45,
		PeakHourUTC:      18,
		WeekendDip:       0.25,
		LargeFraction:    0.5,
	}
}

// Uniform is the flat invocation pattern used for the trade-off studies
// (§9.1 "Workload Invocation and Traffic").
func Uniform(perDay float64) Profile {
	return Profile{DailyInvocations: perDay, LargeFraction: 0.5}
}

// Event is one invocation arrival.
type Event struct {
	At    time.Time
	Large bool
}

// Generate produces the arrival events in [start, end). Arrivals are
// Poisson within each hour at the profile's modulated rate; within an
// hour, arrival offsets are uniform. The output is sorted by time and
// deterministic in the seed.
func Generate(p Profile, start, end time.Time, seed int64) ([]Event, error) {
	if !end.After(start) {
		return nil, fmt.Errorf("trace: end %v not after start %v", end, start)
	}
	if p.DailyInvocations <= 0 {
		return nil, fmt.Errorf("trace: DailyInvocations must be positive, got %v", p.DailyInvocations)
	}
	rng := simclock.DeriveRand(seed, "trace")
	var events []Event
	for t := start.UTC().Truncate(time.Hour); t.Before(end); t = t.Add(time.Hour) {
		rate := p.HourlyRate(t)
		n := rng.Poisson(rate)
		for i := 0; i < n; i++ {
			at := t.Add(time.Duration(rng.Float64() * float64(time.Hour)))
			if at.Before(start) || !at.Before(end) {
				continue
			}
			events = append(events, Event{At: at, Large: rng.Bool(p.LargeFraction)})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].At.Before(events[j].At) })
	return events, nil
}

// HourlyRate returns the expected number of arrivals in the hour starting
// at t.
func (p Profile) HourlyRate(t time.Time) float64 {
	base := p.DailyInvocations / 24
	mod := 1.0
	if p.DiurnalAmplitude > 0 {
		h := float64(t.UTC().Hour())
		mod += p.DiurnalAmplitude * math.Cos(2*math.Pi*(h-p.PeakHourUTC)/24)
	}
	if wd := t.Weekday(); (wd == time.Saturday || wd == time.Sunday) && p.WeekendDip > 0 {
		mod *= 1 - p.WeekendDip
	}
	if mod < 0 {
		mod = 0
	}
	return base * mod
}
