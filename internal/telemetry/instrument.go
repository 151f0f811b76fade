package telemetry

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The instrument registry: named counters, gauges, and fixed-bucket
// histograms. Handles are interned — asking twice for the same name
// returns the same instrument, so concurrently constructed components
// (e.g. the Envs of a parallel figure sweep) aggregate into shared
// counters. Handle lookup takes a mutex and happens at component
// construction; the instruments themselves are lock-free atomics.

type registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	gags  map[string]*Gauge
	hists map[string]*Histogram
}

func newRegistry() registry {
	return registry{
		ctrs:  make(map[string]*Counter),
		gags:  make(map[string]*Gauge),
		hists: make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing atomic count. The nil *Counter is
// the disabled instrument: Add/Inc on nil are single-branch no-ops.
type Counter struct {
	v atomic.Int64
}

// Counter interns a counter by name; nil Recorder yields the nil
// (disabled) counter.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.reg.mu.Lock()
	defer r.reg.mu.Unlock()
	c, ok := r.reg.ctrs[name]
	if !ok {
		c = &Counter{}
		r.reg.ctrs[name] = c
	}
	return c
}

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter; zero on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic level (int64). The nil *Gauge is disabled.
type Gauge struct {
	v atomic.Int64
}

// Gauge interns a gauge by name; nil Recorder yields the nil gauge.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.reg.mu.Lock()
	defer r.reg.mu.Unlock()
	g, ok := r.reg.gags[name]
	if !ok {
		g = &Gauge{}
		r.reg.gags[name] = g
	}
	return g
}

// Max raises the gauge to v if v exceeds the current value (CAS loop), so
// concurrent observers keep a high-water mark. No-op on nil.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge; zero on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets: counts[i] tallies
// values <= bounds[i], with one overflow bucket past the last bound. The
// nil *Histogram is disabled.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	sumF   float64Adder
	n      atomic.Int64
}

// float64Adder accumulates float64s with a CAS loop over bit patterns.
type float64Adder struct{ bits atomic.Uint64 }

func (f *float64Adder) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *float64Adder) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram interns a histogram by name. bounds must be ascending; they
// are fixed at first interning (later calls with different bounds get the
// original instrument). nil Recorder yields the nil histogram.
func (r *Recorder) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.reg.mu.Lock()
	defer r.reg.mu.Unlock()
	h, ok := r.reg.hists[name]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.reg.hists[name] = h
	}
	return h
}

// Observe adds one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	h.sumF.add(v)
}

// Stopwatch times one section of code against the wall clock and records
// the elapsed seconds in its histogram: `sw := h.Start(); …; sw.Stop()`.
// It is the sanctioned seam for latency instruments — components that
// stamp their *output* with an injected (possibly simulated, possibly
// frozen) clock must not time themselves with it, or a -sim server
// observes zero. The zero Stopwatch, which the nil Histogram hands out,
// reads no clock and records nothing.
type Stopwatch struct {
	h     *Histogram
	start time.Time
}

// Start begins timing a section; no clock is read on nil.
func (h *Histogram) Start() Stopwatch {
	if h == nil {
		return Stopwatch{}
	}
	return Stopwatch{h: h, start: time.Now()}
}

// Stop observes the seconds elapsed since Start. A section that ends
// without Stop (an error path) simply records nothing.
func (sw Stopwatch) Stop() {
	if sw.h == nil {
		return
	}
	sw.h.Observe(time.Since(sw.start).Seconds())
}

// Lap times one section of code for callers that accumulate nanoseconds
// themselves and report the totals as span attributes: `lap := rec.Lap();
// …; ns += lap.NS()`. The zero Lap, which the nil Recorder hands out, reads
// no clock and measures zero.
type Lap struct{ start time.Time }

// Lap starts timing at the current instant; no clock is read on nil.
func (r *Recorder) Lap() Lap {
	if r == nil {
		return Lap{}
	}
	return Lap{start: time.Now()}
}

// NS returns the nanoseconds since Lap.
func (l Lap) NS() int64 {
	if l.start.IsZero() {
		return 0
	}
	return int64(time.Since(l.start))
}

// Count reports total observations; zero on nil.
//
//caribou:allow unreached oracle of TestSimServerMeasuresRealLatency, TestInstrumentsConcurrent and TestStopwatchObservesElapsedSeconds
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum reports the total of all observed values; zero on nil.
//
//caribou:allow unreached oracle of TestSimServerMeasuresRealLatency and TestStopwatchObservesElapsedSeconds
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sumF.load()
}

// snapshot types for export.

type counterSnap struct {
	Name  string
	Value int64
}

type gaugeSnap struct {
	Name  string
	Value int64
}

type histSnap struct {
	Name   string
	Bounds []float64
	Counts []int64
	N      int64
	Sum    float64
}

func (r *Recorder) snapshotInstruments() (ctrs []counterSnap, gags []gaugeSnap, hists []histSnap) {
	r.reg.mu.Lock()
	defer r.reg.mu.Unlock()
	for name, c := range r.reg.ctrs {
		ctrs = append(ctrs, counterSnap{name, c.v.Load()})
	}
	for name, g := range r.reg.gags {
		gags = append(gags, gaugeSnap{name, g.v.Load()})
	}
	for name, h := range r.reg.hists {
		s := histSnap{Name: name, Bounds: append([]float64(nil), h.bounds...), N: h.n.Load(), Sum: h.sumF.load()}
		for i := range h.counts {
			s.Counts = append(s.Counts, h.counts[i].Load())
		}
		hists = append(hists, s)
	}
	sort.Slice(ctrs, func(i, j int) bool { return ctrs[i].Name < ctrs[j].Name })
	sort.Slice(gags, func(i, j int) bool { return gags[i].Name < gags[j].Name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	return ctrs, gags, hists
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
