package telemetry

import (
	"testing"
	"time"
)

// BenchmarkTelemetryOff measures the disabled path every instrumented
// component pays when no recorder is installed: a nil counter add, a nil
// gauge high-water update, and a nil span start/end. This is the cost
// telemetry imposes on the whole system when off — it must stay at a few
// nanoseconds (a handful of nil checks), which is what keeps
// BenchmarkSolver24Hourly within 5% of its pre-telemetry number.
func BenchmarkTelemetryOff(b *testing.B) {
	var r *Recorder
	c := r.Counter("bench.counter")
	g := r.Gauge("bench.gauge")
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Max(int64(i))
		sp := r.StartSpan("bench.span")
		r.Event("bench.event", time.Time{})
		sp.End()
	}
}

// BenchmarkTelemetryOn measures the same sequence against a live
// recorder: atomic increments plus one ring append per span and event.
func BenchmarkTelemetryOn(b *testing.B) {
	r := New(Options{})
	c := r.Counter("bench.counter")
	g := r.Gauge("bench.gauge")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Max(int64(i))
		sp := r.StartSpan("bench.span")
		r.Event("bench.event", time.Time{})
		sp.End()
	}
}

// BenchmarkCounterOn isolates the enabled counter hot path (one atomic
// add).
func BenchmarkCounterOn(b *testing.B) {
	r := New(Options{})
	c := r.Counter("bench.counter")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
