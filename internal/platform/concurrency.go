package platform

import (
	"caribou/internal/region"
	"caribou/internal/telemetry"
)

// Per-region execution concurrency, modeling the account-level concurrent
// execution limit of serverless platforms (AWS Lambda's default is 1,000
// per region). When a region is saturated, new invocations queue until a
// slot frees — the "region unavailability due to increased traffic"
// failure mode §6.1's fallback machinery guards against.

// DefaultRegionConcurrency matches the provider's default account limit.
const DefaultRegionConcurrency = 1000

type regionLimiter struct {
	capacity int
	inUse    int
	// waiting[head:] is the FIFO queue; popped slots are cleared so their
	// closures are collectable, and a drained queue restarts at slot 0.
	waiting []func()
	head    int
	peak    int
}

func (p *Platform) limiter(r region.ID) *regionLimiter {
	l, ok := p.limiters[r]
	if !ok {
		l = &regionLimiter{capacity: p.regionConcurrency}
		p.limiters[r] = l
	}
	return l
}

// AcquireExecutionSlot runs fn as soon as the region has execution
// capacity: immediately when below the limit, otherwise when a running
// execution releases its slot. fn must arrange for ReleaseExecutionSlot
// to be called exactly once when the execution finishes.
func (p *Platform) AcquireExecutionSlot(r region.ID, fn func()) {
	l := p.limiter(r)
	if l.capacity <= 0 || l.inUse < l.capacity {
		l.inUse++
		if l.inUse > l.peak {
			l.peak = l.inUse
			p.tel.limiterPeak.Max(int64(l.peak))
		}
		fn()
		return
	}
	l.waiting = append(l.waiting, fn)
	p.tel.limiterQueued.Inc()
	p.tel.rec.Event("platform.limiter.queued", p.sched.Now(),
		telemetry.String("region", string(r)),
		telemetry.Int("depth", int64(len(l.waiting)-l.head)))
}

// ReleaseExecutionSlot returns a slot to the region and starts the oldest
// queued execution, if any.
func (p *Platform) ReleaseExecutionSlot(r region.ID) {
	l := p.limiter(r)
	if l.head < len(l.waiting) {
		next := l.waiting[l.head]
		l.waiting[l.head] = nil
		l.head++
		if l.head == len(l.waiting) {
			l.waiting, l.head = l.waiting[:0], 0
		}
		// The slot transfers directly to the queued execution.
		next()
		return
	}
	if l.inUse > 0 {
		l.inUse--
	}
}
