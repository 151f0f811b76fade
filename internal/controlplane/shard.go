// shard.go implements admission control and job scheduling for tenant
// mutation. A tenant's jobs — delta ingestion, forced solves — serialize
// on the tenant's own lock and run on the request's goroutine, so one
// tenant's solve never waits behind another's; a registration takes no
// lock, since its reserved id excludes every other job on the tenant. A
// server-wide pool of Config.Shards run slots bounds how many jobs run at
// once. FNV(tenant id) mod N picks the tenant's admission partition
// (shard): each admits at most 1 + QueueDepth jobs, running or waiting,
// and rejects the next immediately (the handler maps that to 429 +
// Retry-After) instead of letting solve backlog grow without limit. Plan
// queries never submit; they read the tenant's atomic snapshot directly.
package controlplane

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"caribou/internal/telemetry"
)

// ErrOverloaded reports an admission partition at capacity; handlers
// translate it to 429 Too Many Requests.
var ErrOverloaded = errors.New("controlplane: shard queue full")

// errClosed reports a submit after Close, or a job still waiting at Close.
var errClosed = errors.New("controlplane: server closed")

// shard is one admission partition of the tenant space.
type shard struct {
	admitted chan struct{} // one token per admitted job, running or waiting
	waiting  atomic.Int64  // admitted jobs not yet running

	depth     *telemetry.Gauge
	processed *telemetry.Counter
}

func newShard(index, queueDepth int) *shard {
	rec := telemetry.Default()
	return &shard{
		admitted:  make(chan struct{}, 1+queueDepth),
		depth:     rec.Gauge(fmt.Sprintf("controlplane.shard.%d.queue_depth", index)),
		processed: rec.Counter(fmt.Sprintf("controlplane.shard.%d.jobs", index)),
	}
}

// submit admits fn as one job on tenant id and runs it on the caller's
// goroutine once it holds t's lock (t is nil for a registration) and then
// a run slot — in that order, so no slot idles behind a tenant lock. It
// fails fast with ErrOverloaded when id's partition is at capacity — the
// §6 manager never queues unbounded work; excess re-plan pressure is shed
// to the client.
func (s *Server) submit(id string, t *Tenant, fn func() error) error {
	sh := s.shardOf(id)
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return errClosed
	}
	select {
	case sh.admitted <- struct{}{}:
	default:
		s.closeMu.RUnlock()
		return ErrOverloaded
	}
	s.jobs.Add(1)
	s.closeMu.RUnlock()
	defer s.jobs.Done()
	defer func() { <-sh.admitted }()

	sh.depth.Max(sh.waiting.Add(1))
	wait := s.tel.queueWait.Start()
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-s.quit:
	}
	sh.waiting.Add(-1)
	select {
	case <-s.quit:
		return errClosed
	default:
	}
	wait.Stop()
	err := fn()
	sh.processed.Inc()
	return err
}

// shardFor maps a tenant ID onto one of n admission partitions.
func shardFor(id string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}
