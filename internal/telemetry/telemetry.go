// Package telemetry is the system-observability layer of the repository:
// structured spans with parent links feeding a bounded flight-recorder
// ring buffer, an instrument registry of atomic counters, gauges, and
// fixed-bucket histograms, and exporters (NDJSON trace dump, text summary
// table). It observes the *system* — solver batches, pool memoization,
// simulated-platform activity — whereas internal/metrics implements the
// paper's Metric Manager (§7), which observes the *workloads*.
//
// Telemetry is inert by contract: nothing in this package influences
// simulation state, RNG streams, or scheduling, so every figure output is
// bit-identical with telemetry enabled or disabled at any worker count.
//
// The package is stdlib-only and nil-safe throughout. The process-wide
// recorder defaults to nil (disabled); components capture instrument
// handles at construction, and every method on a nil *Recorder, *Span,
// *Counter, *Gauge, or *Histogram is a no-op whose hot path is a single
// nil check (guarded by BenchmarkTelemetryOff).
package telemetry

import (
	"sync/atomic"
	"time"
)

// DefaultCapacity is the flight recorder's span/event capacity when
// Options.Capacity is zero: old records are overwritten once the ring
// wraps, so long sweeps never grow memory.
const DefaultCapacity = 8192

// Options configures an enabled Recorder.
type Options struct {
	// Capacity bounds the flight-recorder ring buffer (DefaultCapacity
	// when zero).
	Capacity int
}

// Recorder owns one telemetry domain: a flight recorder and an
// instrument registry. The zero value is not usable; construct with New
// or Enable. A nil *Recorder is the disabled recorder.
type Recorder struct {
	ring   *ring
	reg    registry
	nextID atomic.Uint64
}

// New builds a standalone Recorder (tests and embedders); Enable installs
// one as the process default.
func New(opts Options) *Recorder {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: newRing(capacity), reg: newRegistry()}
}

// global is the process-wide recorder; nil means disabled.
var global atomic.Pointer[Recorder]

// Enable installs a fresh process-wide Recorder and returns it.
// Components constructed afterwards pick it up via Default.
func Enable(opts Options) *Recorder {
	r := New(opts)
	global.Store(r)
	return r
}

// Disable clears the process-wide recorder; components constructed
// afterwards run with no-op instruments.
func Disable() {
	global.Store(nil)
}

// Default returns the process-wide recorder, or nil when telemetry is
// disabled. All Recorder methods are safe on the nil result.
func Default() *Recorder {
	return global.Load()
}

// Records snapshots the flight recorder's retained records, oldest first.
// Nil-safe: a disabled recorder has no records.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	recs, _ := r.ring.snapshot()
	return recs
}

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string
	Value string
}

// String builds a string-valued attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer-valued attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: formatInt(v)} }

// Float builds a float-valued attribute with compact formatting.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: formatFloat(v)} }

// Time builds a time-valued attribute in RFC 3339 (UTC). Used to stamp
// records with simulated (simclock) time, which is distinct from the wall
// clock spans measure.
func Time(k string, t time.Time) Attr {
	return Attr{Key: k, Value: t.UTC().Format(time.RFC3339Nano)}
}
