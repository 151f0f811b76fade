// Fixture: publication-discipline violations (loaded as
// caribou/internal/controlplane, so the Tenant type below is the
// registered tenant-owned type).
package controlplane

import (
	"fmt"
	"sync/atomic"
)

type snapshot struct {
	version int
	plans   []string
}

type latch struct {
	cur atomic.Pointer[snapshot]
}

// publishThenPatch mutates the snapshot after Store: readers already
// share it lock-free.
func publishThenPatch(l *latch, plans []string) {
	snap := &snapshot{plans: plans}
	l.cur.Store(snap)
	snap.version = 2 // want atomicpub "snap is mutated after being published"
}

// patchLoaded mutates a snapshot obtained from Load: it is shared with
// the publisher and every other reader.
func patchLoaded(l *latch) {
	cur := l.cur.Load()
	cur.version++ // want atomicpub "cur was obtained from atomic.Pointer.Load"
}

// Tenant matches the tenant-owned registry entry for this package.
type Tenant struct {
	deltas int
}

func (t *Tenant) bump() {
	t.deltas++
}

func (t *Tenant) count() int {
	return t.deltas
}

// summary reads tenant-owned state through another reader.
func (t *Tenant) summary() string {
	return fmt.Sprint(t.count())
}

// pokeDirect writes tenant-owned state from outside any submit closure.
func pokeDirect(t *Tenant) {
	t.deltas = 0 // want atomicpub "tenant-owned Tenant is written"
}

// pokeViaMutator reaches the same state through a mutating method
// without going through a submit closure.
func pokeViaMutator(t *Tenant) {
	t.bump() // want atomicpub "mutator Tenant.bump of tenant-owned state is called outside"
}

// peekOutside reads non-atomic tenant-owned state, two methods down,
// outside any submit closure: a concurrent job may be writing it.
func peekOutside(t *Tenant) string {
	return t.summary() // want atomicpub "Tenant.summary reads non-atomic tenant-owned state outside a submit closure"
}
