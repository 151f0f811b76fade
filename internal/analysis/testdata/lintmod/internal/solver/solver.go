// Package solver seeds the acceptance-criteria violation for wallclock:
// a wall-clock call two levels below an exported solver entry point,
// reported once, at the call.
package solver

import "time"

// Solve is the exported surface; the clock hides in jitter, two frames
// down.
func Solve(n int) int64 {
	total := int64(n)
	return total + helper()
}

func helper() int64 {
	return jitter()
}

func jitter() int64 {
	return time.Now().UnixNano()
}
