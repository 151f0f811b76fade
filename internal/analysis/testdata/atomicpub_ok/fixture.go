// Fixture: publication-discipline negative and suppressed cases (loaded
// as caribou/internal/controlplane; Tenant is the registered tenant-owned
// type).
package controlplane

import "sync/atomic"

type snapshot struct {
	version int
	plans   []string
}

type latch struct {
	cur atomic.Pointer[snapshot]
}

// buildThenPublish is the discipline the analyzer enforces: every write
// lands before Store, and republishing means building a fresh value.
func buildThenPublish(l *latch, plans []string) {
	snap := &snapshot{plans: plans}
	snap.version = 1
	l.cur.Store(snap)

	next := &snapshot{plans: plans, version: snap.version + 1}
	l.cur.Store(next)
}

// readLoaded reads a loaded snapshot without mutating it.
func readLoaded(l *latch) int {
	cur := l.cur.Load()
	if cur == nil {
		return 0
	}
	return cur.version
}

// Tenant matches the tenant-owned registry entry for this package.
type Tenant struct {
	deltas  int
	closed  bool
	version atomic.Int64
}

func (t *Tenant) bump() {
	t.deltas++ // owned method: mutation on the submitting job's behalf
}

func (t *Tenant) snapshotDeltas() int {
	return t.deltas // a reader: callable inside a submit closure
}

func (t *Tenant) snapshotVersion() int64 {
	return t.version.Load() // reads only an atomic: callable from anywhere
}

// newTenant is the constructor: it owns the value exclusively until it
// returns, so its writes are exempt.
func newTenant() *Tenant {
	t := &Tenant{}
	t.deltas = 0
	t.bump()
	return t
}

type Server struct{}

func (s *Server) submit(fn func()) { fn() }

// viaWorker routes the mutation and the read through a submit closure —
// the sanctioned path.
func viaWorker(s *Server, t *Tenant) (n int) {
	s.submit(func() {
		t.bump()
		t.deltas = 7
		n = t.snapshotDeltas()
	})
	return n
}

// readAnywhere calls a method that reads only atomics outside any submit
// closure.
func readAnywhere(t *Tenant) int64 {
	return t.snapshotVersion()
}

// drainSanctioned documents a reviewed exception with a reasoned allow.
func drainSanctioned(t *Tenant) {
	t.closed = true //caribou:allow atomicpub fixture: shutdown path runs after every worker has quiesced
}
