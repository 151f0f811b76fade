// Package simclock provides a deterministic discrete-event scheduler with a
// virtual clock. All Caribou substrates run on virtual time so that
// week-long experiments execute in milliseconds and are exactly
// reproducible from a seed.
package simclock

import (
	"fmt"
	"time"
)

// Scheduler is a single-threaded discrete-event scheduler. Events fire in
// timestamp order; ties break in scheduling order, which keeps runs
// deterministic. Scheduler is not safe for concurrent use: the simulation
// model is cooperative, with every event handler running to completion on
// the caller's goroutine.
type Scheduler struct {
	now   time.Time
	queue []event // binary min-heap on (at, seq), sifted by hand: no boxing
	seq   uint64
}

type event struct {
	at  time.Time
	seq uint64
	fn  func()
}

// before orders events by timestamp, then scheduling order; the key stays a
// time.Time under Equal/Before so the zero Time orders as it always has.
func (a *event) before(b *event) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

// push adds ev, sifting it up from the last leaf.
func (s *Scheduler) push(ev event) {
	q := append(s.queue, ev)
	i := len(q) - 1
	for p := (i - 1) / 2; i > 0 && ev.before(&q[p]); p = (i - 1) / 2 {
		q[i], i = q[p], p
	}
	q[i] = ev
	s.queue = q
}

// pop removes the earliest event, sifting the last leaf down from the root.
func (s *Scheduler) pop() event {
	q, n := s.queue, len(s.queue)-1
	top, last := q[0], q[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&last) {
			break
		}
		q[i], i = q[c], c
	}
	q[i] = last
	q[n] = event{} // release the vacated slot's closure (after q[i]: i is n when n is 0)
	s.queue = q[:n]
	return top
}

// New returns a scheduler whose clock starts at start.
func New(start time.Time) *Scheduler {
	return &Scheduler{now: start}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// At schedules fn to run at the given virtual time. Scheduling in the past
// is a programming error and panics, since it would silently reorder the
// causal event stream.
func (s *Scheduler) At(t time.Time, fn func()) {
	if t.Before(s.now) {
		panic(fmt.Sprintf("simclock: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.push(event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time. Negative
// durations are clamped to zero.
func (s *Scheduler) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.pop()
	s.now = ev.at
	ev.fn()
	return true
}

// Run fires events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with timestamps not after deadline, then advances
// the clock to deadline. Events scheduled beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline time.Time) {
	for len(s.queue) > 0 && !s.queue[0].at.After(deadline) {
		s.Step()
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
}
