package montecarlo_test

// Kernel benchmarks of the shared-sweep estimator on learnSnapshot's
// fixture: a row sweep, a fresh replay, pricing one more hour from a
// basis, and what screening a plan costs. End-to-end solve figures come
// from the harness (`go run ./benchmark -workload plan-day`).

import (
	"fmt"
	"testing"

	"caribou/internal/montecarlo"
	"caribou/internal/region"
	"caribou/internal/telemetry"
	"caribou/internal/workloads"
)

// benchSnapshot is Text2Speech homed in us-east-1, with its home assignment.
func benchSnapshot(b *testing.B) (*montecarlo.Snapshot, []int) {
	snap := learnSnapshot(b, workloads.Text2SpeechCensoring(), region.USEast1)
	return snap, snap.HomeAssign()
}

// benchAssigns perturbs the home assignment into k distinct candidate
// plans — the shape of one HBSS evaluation round.
func benchAssigns(snap *montecarlo.Snapshot, home []int, k int) [][]int {
	assigns := make([][]int, k)
	for i := range assigns {
		a := append([]int(nil), home...)
		a[i%len(a)] = (a[i%len(a)] + 1 + i/len(a)) % snap.Regions()
		assigns[i] = a
	}
	return assigns
}

// benchBases builds one fresh basis per assignment over a new arena.
func benchBases(b *testing.B, snap *montecarlo.Snapshot, assigns [][]int) ([]*montecarlo.Basis, *montecarlo.BasisArena) {
	b.Helper()
	arena := montecarlo.NewBasisArena()
	bases := make([]*montecarlo.Basis, len(assigns))
	for i, a := range assigns {
		var err error
		if bases[i], err = snap.NewBasis(arena, a); err != nil {
			b.Fatal(err)
		}
	}
	return bases, arena
}

// BenchmarkSnapshotEstimateRows measures one row sweep on Text2Speech: 16
// plans replayed once and priced at all 24 hours — 24 × 16 estimates, to
// be read against BenchmarkReplayBasis/lanes=16 + 16 ×
// BenchmarkPriceHour/all-24-hours.
func BenchmarkSnapshotEstimateRows(b *testing.B) {
	snap, home := benchSnapshot(b)
	assigns := benchAssigns(snap, home, 16)
	sweep := func() {
		bases, arena := benchBases(b, snap, assigns)
		defer arena.Release()
		if _, err := snap.EstimateBases(bases, 0, snap.NumHours(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	sweep() // compiles the tape
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// BenchmarkReplayBasis measures what the first hour to want a plan pays:
// K fresh Text2Speech bases replayed through one shared sweep (one batch —
// every lane converges at the first boundary) and priced at one hour.
// Subtract K × BenchmarkPriceHour/one-more-hour for the replay alone; the
// per-lane cost at 8 and 16 lanes against 1 is what sharing a sweep buys.
func BenchmarkReplayBasis(b *testing.B) {
	snap, home := benchSnapshot(b)
	all := benchAssigns(snap, home, 16)
	if _, err := snap.EstimateBatch(all, 0, nil); err != nil { // compile the tape
		b.Fatal(err)
	}
	for _, k := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("lanes=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bases, arena := benchBases(b, snap, all[:k])
				if _, err := snap.EstimateBases(bases, 0, 1, nil, nil); err != nil {
					b.Fatal(err)
				}
				arena.Release()
			}
		})
	}
}

// BenchmarkPriceHour measures what every later hour pays: one more hour
// priced from a 200-sample Text2Speech basis (the HBSS memo hit that needs
// no replay), and all 24 hours priced from the longest basis the heavy-tail
// fixture produces (a row of the exhaustive sweep, its pricing half only;
// the length is reported as samples/op).
func BenchmarkPriceHour(b *testing.B) {
	b.Run("one-more-hour", func(b *testing.B) {
		snap, home := benchSnapshot(b)
		bases, arena := benchBases(b, snap, benchAssigns(snap, home, 1))
		defer arena.Release()
		if _, err := snap.EstimateBases(bases, 0, 1, nil, nil); err != nil {
			b.Fatal(err)
		}
		if n := bases[0].Samples(); n != montecarlo.BatchSize {
			b.Fatalf("basis holds %d samples, want one batch", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := snap.EstimateBases(bases, 1+i%23, 1, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("all-24-hours", func(b *testing.B) {
		snap := learnSnapshot(b, workloads.HeavyTailAnalytics(), region.CACentral1)
		// Of the 4⁴ plans, the one whose hungriest hour runs furthest down the
		// tape: priced once at every hour, a basis is as long as that hour
		// needed.
		var bases []*montecarlo.Basis
		for code := 0; code < 256; code++ {
			a := make([]int, snap.NumNodes())
			for i := range a {
				a[i] = code >> (2 * i) % snap.Regions()
			}
			cand, arena := benchBases(b, snap, [][]int{a})
			defer arena.Release()
			for h := 0; h < snap.NumHours(); h++ {
				if _, err := snap.EstimateBases(cand, h, 1, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			if bases == nil || cand[0].Samples() > bases[0].Samples() {
				bases = cand
			}
		}
		if n := bases[0].Samples(); n < 3*montecarlo.BatchSize {
			b.Fatalf("longest basis holds %d samples, want several batches", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for h := 0; h < snap.NumHours(); h++ {
				if _, err := snap.EstimateBases(bases, h, 1, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(bases[0].Samples()), "samples/op") // after ResetTimer, which drops reported metrics
	})
}

// BenchmarkScreenStats measures what deferring a plan costs: one fresh
// Text2Speech basis through a parking row sweep — its first batch replayed,
// the per-slot sums and deviation norms of that block (two passes), the 24
// hour screens, the block's latency and cost p95, and the move to the
// solve's arena; nothing priced. screen-ns/op is everything but the replay,
// by the snapshot's own section clock; read the rest against
// BenchmarkReplayBasis/lanes=1, and the whole against 24 ×
// BenchmarkPriceHour/one-more-hour, which a deferred plan no longer pays.
func BenchmarkScreenStats(b *testing.B) {
	telemetry.Enable(telemetry.Options{})
	defer telemetry.Disable()
	snap, home := benchSnapshot(b)
	assigns := benchAssigns(snap, home, 1)
	if _, err := snap.EstimateBatch(assigns, 0, nil); err != nil { // compile the tape
		b.Fatal(err)
	}
	keep := montecarlo.NewBasisArena()
	defer keep.Release()
	park := &montecarlo.RowPrune{Park: keep}
	before := snap.Sweeps.ScreenNS.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bases, arena := benchBases(b, snap, assigns)
		if _, err := snap.EstimateBases(bases, 0, snap.NumHours(), park, nil); err != nil || bases[0].Parked() == nil {
			b.Fatalf("first block proved nothing (err %v)", err)
		}
		arena.Release()
		if i%64 == 63 {
			keep.Release()
		}
	}
	b.ReportMetric(float64(snap.Sweeps.ScreenNS.Load()-before)/float64(b.N), "screen-ns/op")
}
