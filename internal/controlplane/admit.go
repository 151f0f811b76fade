// admit.go implements admission control and job scheduling for tenant
// mutation. A tenant's jobs — delta ingestion, forced solves — serialize
// on the tenant's own lock and run on the request's goroutine, at most
// Config.Shards at once; a registration takes no lock, since its reserved
// id excludes every other job on the tenant. A tenant admits at most
// 1 + QueueDepth jobs, running or waiting, and the server Shards × (1 +
// QueueDepth), which bounds waiting goroutines; a job over either bound
// is shed at once (429 + Retry-After), never queued. Plan queries never
// submit; they read the tenant's atomic snapshot directly.
package controlplane

import "errors"

// errOverloaded reports a tenant or the server at its admission bound;
// handlers translate it to 429 Too Many Requests.
var errOverloaded = errors.New("controlplane: too many requests in flight")

// errClosed reports a submit after Close, or a job still waiting at Close.
var errClosed = errors.New("controlplane: server closed")

// submit admits fn as one job on tenant t (nil for a registration, which
// counts against the server-wide bound only) and runs it on the caller's
// goroutine once it holds t's lock and then a run slot — in that order, so
// no slot idles behind a tenant lock. It fails fast with errOverloaded
// when t or the server is at its bound: the §6 manager never queues
// unbounded work; excess re-plan pressure is shed to the client.
func (s *Server) submit(t *Tenant, fn func() error) error {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return errClosed
	}
	if !t.admit(int64(1 + s.cfg.QueueDepth)) {
		s.closeMu.RUnlock()
		return errOverloaded
	}
	select {
	case s.admitted <- struct{}{}:
	default:
		t.leave()
		s.closeMu.RUnlock()
		return errOverloaded
	}
	s.jobs.Add(1)
	s.closeMu.RUnlock()
	defer s.jobs.Done()
	defer func() {
		<-s.admitted
		t.leave()
	}()

	s.tel.queueDepth.Max(s.waiting.Add(1))
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
	s.waiting.Add(-1)
	select {
	case <-s.quit:
		return errClosed
	default:
	}
	wait.Stop()
	err := fn()
	s.tel.jobs.Inc()
	return err
}

// admit takes one of the tenant's limit places for a job, running or
// waiting, unless all are taken. A nil tenant (a registration's) has no
// bound of its own.
func (t *Tenant) admit(limit int64) bool {
	if t == nil {
		return true
	}
	for {
		n := t.admitted.Load()
		if n >= limit {
			return false
		}
		if t.admitted.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// leave returns a place admit took.
func (t *Tenant) leave() {
	if t != nil {
		t.admitted.Add(-1)
	}
}
