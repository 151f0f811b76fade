package controlplane

import (
	"sync"
	"time"
)

// Clock is the control plane's injectable time source — the determinism
// seam between the simulation core and the serving edge. Everything that
// decides plan *content* (token accrual, solve triggering, expiry)
// advances on tenant-pushed trace timestamps, never on this clock; the
// Clock only stamps serving-side metadata (the served_at field) — latency
// instruments are telemetry stopwatches on the real clock, so freezing
// this one does not zero them. cmd/caribou-server injects the wall clock behind
// an annotated //caribou:allow wallclock site; tests and -sim mode inject
// a SimClock, which makes every response body byte-reproducible.
type Clock interface {
	Now() time.Time
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() time.Time

// Now implements Clock.
func (f ClockFunc) Now() time.Time { return f() }

// SimClock is a manually advanced Clock: it returns exactly what the last
// Set/Advance left, so servers built on it produce identical bytes across
// runs and run-slot counts. Safe for concurrent use.
type SimClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewSimClock returns a SimClock frozen at start.
func NewSimClock(start time.Time) *SimClock {
	return &SimClock{now: start}
}

// Now reports the current simulated time.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the simulated time forward by d and returns the new time.
//
//caribou:allow unreached the fake clock TestSimClock drives
func (c *SimClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// Set pins the simulated time to t.
//
//caribou:allow unreached the fake clock TestSimClock drives
func (c *SimClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}
