package platform

import (
	"testing"

	"caribou/internal/netmodel"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/telemetry"
)

func newLimitedPlatform(t *testing.T, capacity int) *Platform {
	t.Helper()
	sched := simclock.New(t0)
	cat := region.NorthAmerica()
	p, err := New(Options{Sched: sched, Catalogue: cat, Net: netmodel.New(cat), Seed: 1, RegionConcurrency: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLimiterSaturation drives a region past its concurrency cap and
// checks the bookkeeping: peak saturates at the cap, every acquisition
// beyond it counts as queued, and nothing queued runs until a slot frees.
func TestLimiterSaturation(t *testing.T) {
	const capacity = 2
	p := newLimitedPlatform(t, capacity)
	r := region.USEast1

	started := 0
	for i := 0; i < 5; i++ {
		p.AcquireExecutionSlot(r, func() { started++ })
	}
	if started != capacity {
		t.Errorf("started = %d, want %d (cap)", started, capacity)
	}
	l := p.limiter(r)
	if l.peak != capacity {
		t.Errorf("peak = %d, want %d", l.peak, capacity)
	}
	if queued := len(l.waiting) - l.head; queued != 3 {
		t.Errorf("queued = %d, want 3", queued)
	}

	// Each release hands its slot to exactly one queued execution.
	for i := 0; i < 3; i++ {
		p.ReleaseExecutionSlot(r)
		if want := capacity + 1 + i; started != want {
			t.Errorf("after release %d: started = %d, want %d", i+1, started, want)
		}
	}
	// Queue drained: further releases just free slots.
	p.ReleaseExecutionSlot(r)
	p.ReleaseExecutionSlot(r)
	p.AcquireExecutionSlot(r, func() { started++ })
	if started != 6 {
		t.Errorf("post-drain acquire did not run immediately: started = %d", started)
	}
	if l.peak != capacity {
		t.Errorf("peak moved to %d after drain, want %d", l.peak, capacity)
	}
}

// TestLimiterFIFOWakeupOrder pins the queue discipline: executions
// blocked on a saturated region start in submission order as slots free.
func TestLimiterFIFOWakeupOrder(t *testing.T) {
	p := newLimitedPlatform(t, 1)
	r := region.USWest2

	var order []int
	p.AcquireExecutionSlot(r, func() {}) // holds the only slot
	for i := 0; i < 4; i++ {
		i := i
		p.AcquireExecutionSlot(r, func() { order = append(order, i) })
	}
	if len(order) != 0 {
		t.Fatalf("queued executions ran while saturated: %v", order)
	}
	for i := 0; i < 4; i++ {
		p.ReleaseExecutionSlot(r)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("wakeup order = %v, want FIFO", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("only %d of 4 queued executions ran", len(order))
	}
}

// TestLimiterSaturateThenDrain: wake-up order stays FIFO when arrivals
// interleave with releases, a popped slot no longer references its
// closure, and once the queue drains its array is reused from the start
// instead of sliding forward until it is regrown.
func TestLimiterSaturateThenDrain(t *testing.T) {
	p := newLimitedPlatform(t, 1)
	r := region.USEast1
	l := p.limiter(r)

	var order []int
	next := 0
	enqueue := func(n int) {
		for i := 0; i < n; i++ {
			id := next
			next++
			p.AcquireExecutionSlot(r, func() { order = append(order, id) })
		}
	}
	for round := 0; round < 3; round++ {
		p.AcquireExecutionSlot(r, func() {}) // holds the only slot
		enqueue(4)
		p.ReleaseExecutionSlot(r)
		p.ReleaseExecutionSlot(r)
		enqueue(3) // arrivals behind a half-drained queue
		for l.head < len(l.waiting) {
			p.ReleaseExecutionSlot(r)
		}
		p.ReleaseExecutionSlot(r) // the last woken execution finishes
		if l.inUse != 0 || l.head != 0 || len(l.waiting) != 0 {
			t.Fatalf("round %d: drained limiter has inUse=%d head=%d len=%d", round, l.inUse, l.head, len(l.waiting))
		}
		for i, fn := range l.waiting[:cap(l.waiting)] {
			if fn != nil {
				t.Errorf("round %d: drained queue still references the closure in slot %d", round, i)
			}
		}
		if round > 0 && cap(l.waiting) > 8 {
			t.Errorf("round %d: queue array grew to %d slots for a depth of 7; it is not being reused", round, cap(l.waiting))
		}
	}
	if len(order) != next {
		t.Fatalf("%d of %d queued executions ran", len(order), next)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("wakeup order = %v, want FIFO", order)
		}
	}
}

// TestLimiterTelemetryCounters checks the instrument view of saturation:
// the peak gauge and queued counter count what the limiter did, and each
// queueing emits a flight-recorder event stamped with simulated time.
func TestLimiterTelemetryCounters(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	p := newLimitedPlatform(t, 1)
	r := region.CACentral1

	p.AcquireExecutionSlot(r, func() {})
	p.AcquireExecutionSlot(r, func() {})
	p.AcquireExecutionSlot(r, func() {})

	if got := rec.Gauge("platform.limiter.peak").Value(); got != 1 {
		t.Errorf("peak gauge = %d, want 1", got)
	}
	if got := rec.Counter("platform.limiter.queued").Value(); got != 2 {
		t.Errorf("queued counter = %d, want 2", got)
	}
	events := 0
	for _, rc := range rec.Records() {
		if rc.Name == "platform.limiter.queued" {
			events++
			if rc.Attrs["sim"] == "" {
				t.Error("queue event missing simulated-time stamp")
			}
		}
	}
	if events != 2 {
		t.Errorf("flight recorder has %d queue events, want 2", events)
	}
}
