package executor

import (
	"testing"

	"caribou/internal/netmodel"
	"caribou/internal/platform"
	"caribou/internal/region"
	"caribou/internal/simclock"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// TestRegionConcurrencyLimitSerializesExecutions: with a capacity of 1,
// simultaneous invocations of a 6.5-second function must queue, so
// completion times stagger by roughly the execution duration and later
// invocations' service times include their queueing delay.
func TestRegionConcurrencyLimitSerializesExecutions(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	sched := simclock.New(testStart)
	cat := region.NorthAmerica()
	p, err := platform.New(platform.Options{
		Sched: sched, Catalogue: cat, Net: netmodel.New(cat), Seed: 42,
		RegionConcurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := workloads.DNAVisualization()
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, wl, ModeCaribou, HomeOnly{}, &recs)

	const n = 4
	for i := 0; i < n; i++ {
		if _, err := e.Invoke(workloads.Small); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if len(recs) != n {
		t.Fatalf("completed %d of %d", len(recs), n)
	}
	peak, queued := rec.Gauge("platform.limiter.peak").Value(), rec.Counter("platform.limiter.queued").Value()
	if peak != 1 {
		t.Errorf("peak concurrency = %d, want 1", peak)
	}
	if queued != n-1 {
		t.Errorf("queued = %d, want %d", queued, n-1)
	}
	// Service times grow roughly linearly with queue position.
	mean := wl.Profile("visualize").MeanDurationSec[workloads.Small]
	first := recs[0].ServiceTime().Seconds()
	last := recs[n-1].ServiceTime().Seconds()
	if last < first+float64(n-2)*mean*0.8 {
		t.Errorf("no queueing visible: first %.2fs, last %.2fs", first, last)
	}
}

// TestUnlimitedConcurrencyRunsInParallel: the same burst with no cap
// completes in about one execution duration.
func TestUnlimitedConcurrencyRunsInParallel(t *testing.T) {
	rec := telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	sched := simclock.New(testStart)
	cat := region.NorthAmerica()
	p, err := platform.New(platform.Options{
		Sched: sched, Catalogue: cat, Net: netmodel.New(cat), Seed: 42,
		RegionConcurrency: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := workloads.DNAVisualization()
	var recs []*platform.InvocationRecord
	e := newEngine(t, p, wl, ModeCaribou, HomeOnly{}, &recs)
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := e.Invoke(workloads.Small); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if len(recs) != n {
		t.Fatalf("completed %d of %d", len(recs), n)
	}
	mean := wl.Profile("visualize").MeanDurationSec[workloads.Small]
	for _, r := range recs {
		if r.ServiceTime().Seconds() > 2.5*mean {
			t.Errorf("invocation %d took %.2fs; parallel burst should take ~%.1fs", r.ID, r.ServiceTime().Seconds(), mean)
		}
	}
	if queued := rec.Counter("platform.limiter.queued").Value(); queued != 0 {
		t.Errorf("queued = %d with unlimited capacity", queued)
	}
}
