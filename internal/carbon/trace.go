// Package carbon provides grid carbon-intensity data and the operational
// carbon models of §7.1. Live Electricity Maps feeds are replaced by
// synthetic hourly traces per grid zone, calibrated to the statistics the
// paper reports for the North American AWS regions: ca-central-1 averages
// 91.5 % below us-east-1, us-west-1 averages 6.1 % below with a strong
// solar-driven diurnal swing, and us-west-2 has a comparable average.
package carbon

import (
	"fmt"
	"math"
	"time"

	"caribou/internal/simclock"
)

// Source supplies the average grid carbon intensity (gCO2eq/kWh) for a grid
// zone at a point in time. Implementations must be deterministic so that
// experiments are reproducible.
type Source interface {
	// At returns the hourly average carbon intensity in effect at t.
	At(zone string, t time.Time) (float64, error)
	// Hourly returns one value per hour of [from, to), the history the
	// forecasters train on (§7.2).
	Hourly(zone string, from, to time.Time) ([]float64, error)
}

// zoneProfile parameterizes the synthetic trace of one electrical grid.
type zoneProfile struct {
	base       float64 // long-run mean, gCO2eq/kWh
	diurnalAmp float64 // fractional amplitude of the daily cycle
	// solarShare deepens the midday trough: solar-heavy grids (CAISO)
	// are much cleaner at noon than at night (§2.1).
	solarShare float64
	peakHour   float64 // local hour of maximum intensity
	weekendDip float64 // fractional reduction on weekends
	seasonAmp  float64 // fractional amplitude of the annual cycle
	seasonPeak float64 // day-of-year of the annual maximum
	noise      float64 // stddev of the AR(1) hourly noise, fractional
	utcOffset  float64 // hours; converts UTC to local solar time
	floor      float64 // physical lower bound
}

// Profiles for the grid zones referenced by the region catalogue. Values
// are chosen so the 2023-10-15..21 window reproduces the paper's reported
// relative averages (see package comment).
var zoneProfiles = map[string]zoneProfile{
	"US-MIDA-PJM": {base: 410, diurnalAmp: 0.08, solarShare: 0.05, peakHour: 19, weekendDip: 0.04, seasonAmp: 0.06, seasonPeak: 210, noise: 0.03, utcOffset: -5, floor: 120},
	"US-CAL-CISO": {base: 348, diurnalAmp: 0.12, solarShare: 0.55, peakHour: 20, weekendDip: 0.03, seasonAmp: 0.10, seasonPeak: 245, noise: 0.05, utcOffset: -8, floor: 60},
	"US-NW-PACW":  {base: 400, diurnalAmp: 0.10, solarShare: 0.12, peakHour: 18, weekendDip: 0.03, seasonAmp: 0.08, seasonPeak: 225, noise: 0.06, utcOffset: -8, floor: 90},
	"CA-QC":       {base: 34.8, diurnalAmp: 0.05, solarShare: 0.0, peakHour: 18, weekendDip: 0.02, seasonAmp: 0.04, seasonPeak: 20, noise: 0.04, utcOffset: -5, floor: 15},
	"CA-AB":       {base: 540, diurnalAmp: 0.06, solarShare: 0.08, peakHour: 19, weekendDip: 0.03, seasonAmp: 0.05, seasonPeak: 15, noise: 0.03, utcOffset: -7, floor: 250},
	// Global zones for the extension experiments: levels follow public
	// Electricity Maps yearly averages; Sweden is hydro/nuclear-clean,
	// Australia coal-heavy with a strong rooftop-solar trough, Brazil
	// hydro-dominated with southern-hemisphere seasonality.
	"IE":     {base: 290, diurnalAmp: 0.12, solarShare: 0.10, peakHour: 18, weekendDip: 0.04, seasonAmp: 0.08, seasonPeak: 20, noise: 0.06, utcOffset: 0, floor: 80},
	"DE":     {base: 380, diurnalAmp: 0.10, solarShare: 0.30, peakHour: 19, weekendDip: 0.06, seasonAmp: 0.08, seasonPeak: 15, noise: 0.05, utcOffset: 1, floor: 100},
	"SE":     {base: 28, diurnalAmp: 0.05, solarShare: 0.0, peakHour: 18, weekendDip: 0.02, seasonAmp: 0.05, seasonPeak: 20, noise: 0.04, utcOffset: 1, floor: 12},
	"JP-TK":  {base: 460, diurnalAmp: 0.08, solarShare: 0.18, peakHour: 19, weekendDip: 0.03, seasonAmp: 0.06, seasonPeak: 210, noise: 0.04, utcOffset: 9, floor: 200},
	"AU-NSW": {base: 560, diurnalAmp: 0.10, solarShare: 0.45, peakHour: 19, weekendDip: 0.04, seasonAmp: 0.07, seasonPeak: 190, noise: 0.05, utcOffset: 10, floor: 150},
	"BR-CS":  {base: 95, diurnalAmp: 0.07, solarShare: 0.12, peakHour: 19, weekendDip: 0.03, seasonAmp: 0.10, seasonPeak: 250, noise: 0.06, utcOffset: -3, floor: 35},
}

// SyntheticSource produces deterministic hourly carbon-intensity traces for
// the known grid zones over a fixed horizon, materialized eagerly so that
// lookups are O(1) and identical across runs.
type SyntheticSource struct {
	start  time.Time
	traces map[string][]float64
}

// NewSyntheticSource materializes traces for every known zone covering
// [start, end). start is truncated to the hour. The seed selects the noise
// realization; the calibrated structure is seed-independent.
func NewSyntheticSource(seed int64, start, end time.Time) (*SyntheticSource, error) {
	start = start.UTC().Truncate(time.Hour)
	if !end.After(start) {
		return nil, fmt.Errorf("carbon: end %v not after start %v", end, start)
	}
	hours := int(end.Sub(start) / time.Hour)
	if end.Sub(start)%time.Hour != 0 {
		hours++
	}
	s := &SyntheticSource{start: start, traces: make(map[string][]float64)}
	for zone, p := range zoneProfiles {
		s.traces[zone] = synthesize(p, simclock.DeriveRand(seed, "carbon/"+zone), start, hours)
	}
	return s, nil
}

func synthesize(p zoneProfile, rng *simclock.Rand, start time.Time, hours int) []float64 {
	out := make([]float64, hours)
	ar := 0.0
	const arCoef = 0.85
	for h := 0; h < hours; h++ {
		t := start.Add(time.Duration(h) * time.Hour)
		localHour := math.Mod(float64(t.Hour())+float64(t.Minute())/60+p.utcOffset+48, 24)

		// Daily cycle: a cosine peaking at peakHour...
		daily := p.diurnalAmp * math.Cos(2*math.Pi*(localHour-p.peakHour)/24)
		// ...deepened by a solar trough centered on 13:00 local. The
		// trough term integrates to roughly zero over the day so the
		// calibrated mean survives.
		solarElev := math.Cos(2 * math.Pi * (localHour - 13) / 24) // 1 at 13:00, -1 at 01:00
		daily -= p.solarShare * 0.5 * solarElev

		// Annual cycle.
		doy := float64(t.YearDay())
		annual := p.seasonAmp * math.Cos(2*math.Pi*(doy-p.seasonPeak)/365)

		// Weekend demand dip.
		weekend := 0.0
		if wd := t.Weekday(); wd == time.Saturday || wd == time.Sunday {
			weekend = -p.weekendDip
		}

		// AR(1) hourly noise keeps consecutive hours correlated like
		// real grid data.
		ar = arCoef*ar + rng.Normal(0, p.noise)

		v := p.base * (1 + daily + annual + weekend + ar)
		if v < p.floor {
			v = p.floor
		}
		out[h] = v
	}
	return out
}

// ZoneTrace is one grid zone's hourly series, resolved once so that a
// caller pricing many events in the same zone skips the per-lookup zone
// map (platform.Accounts).
type ZoneTrace struct {
	start  time.Time
	hourly []float64
}

// Zone resolves a grid zone to its trace.
func (s *SyntheticSource) Zone(zone string) (ZoneTrace, error) {
	tr, ok := s.traces[zone]
	if !ok {
		return ZoneTrace{}, fmt.Errorf("carbon: unknown grid zone %q", zone)
	}
	return ZoneTrace{start: s.start, hourly: tr}, nil
}

// At returns the hourly average intensity in effect at t (floor-to-hour).
func (z ZoneTrace) At(t time.Time) (float64, error) {
	h := int(t.UTC().Sub(z.start) / time.Hour)
	if h < 0 || h >= len(z.hourly) {
		return 0, fmt.Errorf("carbon: time %v outside trace horizon [%v, +%dh)", t, z.start, len(z.hourly))
	}
	return z.hourly[h], nil
}

// At implements Source with floor-to-hour lookup.
func (s *SyntheticSource) At(zone string, t time.Time) (float64, error) {
	z, err := s.Zone(zone)
	if err != nil {
		return 0, err
	}
	return z.At(t)
}

// Hourly returns the trace slice for [from, to) at hourly resolution.
func (s *SyntheticSource) Hourly(zone string, from, to time.Time) ([]float64, error) {
	var out []float64
	for t := from.UTC().Truncate(time.Hour); t.Before(to); t = t.Add(time.Hour) {
		v, err := s.At(zone, t)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Average returns the mean intensity over [from, to).
func (s *SyntheticSource) Average(zone string, from, to time.Time) (float64, error) {
	hs, err := s.Hourly(zone, from, to)
	if err != nil {
		return 0, err
	}
	if len(hs) == 0 {
		return 0, fmt.Errorf("carbon: empty averaging window")
	}
	var sum float64
	for _, v := range hs {
		sum += v
	}
	return sum / float64(len(hs)), nil
}
