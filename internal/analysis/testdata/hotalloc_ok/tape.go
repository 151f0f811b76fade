// Fixture: hotpath negative and suppressed cases in the loops of hot
// roots (loaded as caribou/internal/montecarlo). sum and setup are called
// outside their roots' loops, so they are not hot.
package montecarlo

import (
	"errors"
	"fmt"
)

func sum(f func(float64) float64, samples []float64) float64 {
	total := 0.0
	for _, s := range samples {
		total += f(s)
	}
	return total
}

//caribou:hot
func replayPrealloc(samples []float64) []float64 {
	// Preallocated capacity: append never regrows.
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		out = append(out, s*2)
	}
	return out
}

//caribou:hot
func replayReuse(buf []byte, samples []float64) []byte {
	// buf arrives from the caller (unknown provenance) and is reset with
	// a [:0] re-slice — the reuse idiom, not regrowth.
	for range samples {
		buf = append(buf[:0], 'x')
	}
	return buf
}

//caribou:hot
func replayFresh(samples []float64) int {
	n := 0
	for range samples {
		// Declared inside the loop: fresh each iteration, not regrowth.
		local := []int{}
		local = append(local, 1)
		n += len(local)
	}
	return n
}

//caribou:hot
func replayHoisted(samples []float64) float64 {
	// Closure hoisted out of the loop: allocated once.
	double := func(s float64) float64 { return s * 2 }
	return sum(double, samples)
}

//caribou:hot
func replayDiag(samples []float64) {
	for i := range samples {
		if i == 0 {
			fmt.Println("replay diagnostics enabled") //caribou:allow hotpath fixture: one-shot diagnostic guarded to the first iteration
		}
	}
}

type lane struct {
	next  int
	names map[int]string
	done  chan struct{}
}

//caribou:hot
func (ln *lane) replayLanes(n int) error {
	if err := ln.setup(n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := ln.step(i); err != nil {
			return err
		}
	}
	return nil
}

// setup runs once, before the loop: its formatting is cold.
func (ln *lane) setup(n int) error {
	ln.names = map[int]string{0: fmt.Sprintf("lane/%d", n)}
	return nil
}

// step runs per iteration. A pointer, map, chan or func sits in the
// interface word itself, so boxing one allocates nothing; fmt.Errorf and
// the arguments of panic build an error that fires once and unwinds.
func (ln *lane) step(i int) error {
	keep(ln)
	keep(ln.names)
	keep(ln.done)
	if i < 0 {
		panic(fmt.Sprintf("negative step %d", i))
	}
	if ln.next < 0 {
		return fmt.Errorf("step %d before setup", i)
	}
	if ln.names == nil {
		return errors.New("no names")
	}
	ln.next++
	return nil
}

func keep(v any) { _ = v }

// cold is reached by no root: an allow on it suppresses nothing and is
// stale.
func cold(n int) string {
	return fmt.Sprint(n) //caribou:allow hotpath labels are formatted per record // want allow "stale suppression"
}
