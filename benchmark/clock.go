package main

import (
	"syscall"
	"time"
)

// This file is the harness's wall-clock seam. Everything the benchmark
// times is real work (solves, HTTP round trips, disk reads), so it reads
// the real clock — but only here, so the lint suppression is auditable in
// one place and nothing else in the package touches package time's clock
// functions.

// now reads the monotonic wall clock.
func now() time.Time {
	return time.Now() //caribou:allow wallclock the benchmark harness times real work (solves, HTTP round trips, disk reads), never simulated time
}

// sleepUntil blocks the calling goroutine until the wall clock reaches t.
// It calls nanosleep(2) directly instead of time.Sleep: a runtime timer
// on an otherwise idle P is served by the netpoller, whose timeout is
// rounded up to whole milliseconds, so sub-millisecond sleeps overshoot
// by ~0.5 ms on average — ten times a plan GET's service time. nanosleep
// overshoots by the kernel's 50 µs timer slack instead.
func sleepUntil(t time.Time) {
	for {
		d := t.Sub(now())
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR (the runtime's preemption signal) just re-enters the loop.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
