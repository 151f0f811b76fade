package metrics

import (
	"fmt"
	"sync"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/dag"
	"caribou/internal/forecast"
	"caribou/internal/platform"
	"caribou/internal/pricing"
	"caribou/internal/region"
	"caribou/internal/stats"
)

// This file exposes the Metric Manager as the model-input provider for the
// Monte Carlo estimator and the Deployment Solver (§7.1): execution-time
// distributions with home-region fallback, edge payload distributions,
// conditional-edge probabilities, transmission latencies with a
// CloudPing-style fallback, and actual-or-forecast carbon intensities.

// ExecDuration returns the empirical execution-time distribution of node
// in r. When no observations for r exist, it falls back to the home
// region's distribution, exactly as the paper's Metric Manager does for
// new regions. An error is returned when not even home data exists.
func (m *Manager) ExecDuration(node dag.NodeID, r region.ID) (*stats.Distribution, error) {
	if d, ok := m.exec[execKey{node, r}]; ok && d.Len() > 0 {
		return d, nil
	}
	if d, ok := m.exec[execKey{node, m.home}]; ok && d.Len() > 0 {
		return d, nil
	}
	return nil, fmt.Errorf("metrics: no execution data for node %q (home %s)", node, m.home)
}

// CPUUtil returns the observed mean vCPU utilization of node (0.7 when
// unobserved, a neutral default).
func (m *Manager) CPUUtil(node dag.NodeID) float64 {
	if u, ok := m.util[node]; ok && u.n > 0 {
		return u.mean
	}
	return 0.7
}

// MemoryMB returns the configured memory observed for node, falling back
// to the DAG declaration.
func (m *Manager) MemoryMB(node dag.NodeID) float64 {
	if mem, ok := m.memory[node]; ok {
		return mem
	}
	if n, ok := m.d.Node(node); ok {
		return n.MemoryMB
	}
	return 1769
}

// EdgeBytes returns the observed payload-size distribution of the edge, or
// nil when never observed (zero-byte edges).
func (m *Manager) EdgeBytes(from, to dag.NodeID) *stats.Distribution {
	if d, ok := m.edgeBytes[edgeKey{from, to}]; ok && d.Len() > 0 {
		return d
	}
	return nil
}

// EntryBytes returns the observed entry payload distribution.
func (m *Manager) EntryBytes() *stats.Distribution { return m.entry }

// OutputBytes returns the observed terminal write-back distribution for
// node, or nil.
func (m *Manager) OutputBytes(node dag.NodeID) *stats.Distribution {
	if d, ok := m.output[node]; ok && d.Len() > 0 {
		return d
	}
	return nil
}

// EdgeProbability returns the observed trigger frequency of the edge; the
// static declaration is the prior when unobserved.
func (m *Manager) EdgeProbability(e dag.Edge) float64 {
	if !e.Conditional {
		return 1
	}
	if f, ok := m.edgeSeen[edgeKey{e.From, e.To}]; ok && f.seen >= 20 {
		return float64(f.taken) / float64(f.seen)
	}
	return e.Probability
}

// TransferSeconds returns the modeled one-way transfer time for a payload
// between two regions (the CloudPing-style fallback; observed timings
// would refine this in a live deployment).
func (m *Manager) TransferSeconds(from, to region.ID, bytes float64) float64 {
	d, err := m.net.TransferTime(from, to, bytes)
	if err != nil {
		return 0.1
	}
	return d.Seconds()
}

// MessageOverheadSeconds is the provider-side pub/sub delivery overhead
// applied per inter-stage message.
func (m *Manager) MessageOverheadSeconds() float64 {
	return platform.SNSPublishOverhead.Seconds()
}

// KVAccessSeconds returns the modeled latency of one KV request from a
// region against the workflow's home table.
func (m *Manager) KVAccessSeconds(from region.ID) float64 {
	return m.net.MustRTTSeconds(from, m.home) + platform.KVAccessOverhead.Seconds()
}

// CostBook exposes the price book.
func (m *Manager) CostBook() *pricing.Book { return m.book }

// Home returns the workflow's home region.
func (m *Manager) Home() region.ID { return m.home }

// DAG returns the workflow graph.
func (m *Manager) DAG() *dag.DAG { return m.d }

// Catalogue returns the region catalogue.
func (m *Manager) Catalogue() *region.Catalogue { return m.cat }

// fits shares fitted forecasters process-wide, keyed by (source, zone,
// trained-through hour), and fits each key once however many Managers ask
// at once. A model is immutable after forecast.Fit. Entries are bounded by
// hours × zones per source; a failed fit is dropped, so it is retried.
var fits sync.Map // fitKey -> func() (*forecast.Model, error)

type fitKey struct {
	src  carbon.Source
	zone string
	end  int64 // unix seconds
}

// fitWeek returns zone's Holt-Winters model trained on the week of src's
// history that ends at end (§7.2).
func fitWeek(src carbon.Source, zone string, end time.Time) (*forecast.Model, error) {
	key := fitKey{src, zone, end.Unix()}
	fit, _ := fits.LoadOrStore(key, sync.OnceValues(func() (*forecast.Model, error) {
		series, err := src.Hourly(zone, end.Add(-7*24*time.Hour), end)
		if err != nil {
			return nil, err
		}
		return forecast.Fit(series, 24)
	}))
	model, err := fit.(func() (*forecast.Model, error))()
	if err != nil {
		fits.Delete(key)
	}
	return model, err
}

// RefreshForecasts refits the Holt-Winters carbon forecasters on the week
// preceding now (§7.2: once a day, previous week as input). It fits every
// zone before installing any, so a failed refresh keeps the forecasters and
// the trained-through hour it had.
func (m *Manager) RefreshForecasts(now time.Time) error {
	end := now.UTC().Truncate(time.Hour)
	fitted := map[string]*forecast.Model{}
	for _, id := range m.cat.IDs() {
		r, _ := m.cat.Get(id)
		model, err := fitWeek(m.src, r.GridZone, end)
		if err != nil {
			return fmt.Errorf("metrics: forecast %s: %w", r.GridZone, err)
		}
		fitted[r.GridZone] = model
	}
	m.forecasters, m.forecastAt = fitted, end
	return nil
}

// IntensityAt returns the grid intensity for region r at t: measured data
// for past instants, the Holt-Winters forecast for future ones. With no
// fitted forecaster it falls back to the most recent measured hour.
func (m *Manager) IntensityAt(r region.ID, t time.Time, now time.Time) (float64, error) {
	zone, err := m.zoneOf(r)
	if err != nil {
		return 0, err
	}
	if !t.After(now) {
		return m.src.At(zone, t)
	}
	if f, ok := m.forecasters[zone]; ok && !m.forecastAt.IsZero() {
		h := int(t.Sub(m.forecastAt)/time.Hour) + 1
		if h < 1 {
			h = 1
		}
		v := f.Forecast(h)
		if v < 0 {
			v = 0
		}
		return v, nil
	}
	// Fallback: persistence from the current hour.
	return m.src.At(zone, now)
}

// IntensitySeries resolves IntensityAt for a batch of solve instants with
// one zone lookup. Snapshot compilation (montecarlo.Compile) detects this
// method and uses it to pre-resolve the per-(hour, region) intensity table
// for a whole 24-hour solve window in one call per region.
func (m *Manager) IntensitySeries(r region.ID, hours []time.Time, now time.Time) ([]float64, error) {
	if _, err := m.zoneOf(r); err != nil {
		return nil, err
	}
	out := make([]float64, len(hours))
	for i, t := range hours {
		v, err := m.IntensityAt(r, t, now)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ForecastMAPE evaluates forecast quality: it refits on the week before
// trainEnd and scores horizon hours of forecasts against actuals,
// returning the mean absolute percentage error (Fig 13b's metric).
func (m *Manager) ForecastMAPE(r region.ID, trainEnd time.Time, horizon int) (float64, error) {
	zone, err := m.zoneOf(r)
	if err != nil {
		return 0, err
	}
	end := trainEnd.UTC().Truncate(time.Hour)
	model, err := fitWeek(m.src, zone, end)
	if err != nil {
		return 0, err
	}
	actual, err := m.src.Hourly(zone, end, end.Add(time.Duration(horizon)*time.Hour))
	if err != nil {
		return 0, err
	}
	return stats.MAPE(actual, model.ForecastRange(len(actual)))
}
