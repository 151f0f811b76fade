// Fixture: wall-clock reads two calls below exported solver functions
// (loaded as caribou/internal/solver). The sink site is the one place a
// finding lands and the one place an allow sanctions it: the exported
// callers above it are never reported.
package solver

import "time"

// Stamped reaches an allowed read: no finding, and the allow is used.
func Stamped() int64 {
	return stampHelper()
}

func stampHelper() int64 {
	return stamp()
}

func stamp() int64 {
	//caribou:allow wallclock fixture: sanctioned real-experiment timing two frames below the solver
	return time.Now().UnixNano()
}

// Solve reaches a bare read: exactly one finding, at the sink.
func Solve() int64 {
	return helper()
}

func helper() int64 {
	return jitter()
}

func jitter() int64 {
	return time.Now().UnixNano() // want wallclock "time.Now reads the wall clock"
}
