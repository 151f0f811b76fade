package stats

import (
	"math"
	"sort"
)

// Distribution is an empirical distribution over float64 samples with a
// bounded reservoir. The metrics pipeline stores one per (node, region) for
// execution times and one per (region pair, size class) for transmission
// latencies; the Monte Carlo estimator samples from them.
type Distribution struct {
	samples []float64
	sorted  bool
	max     int
	next    int // ring index once the reservoir is full
}

// DefaultDistributionCap bounds the per-distribution reservoir. The paper's
// Metric Manager keeps at most 5,000 invocations per workflow; individual
// distributions stay well under that.
const DefaultDistributionCap = 2000

// NewDistribution returns an empty distribution holding at most capHint
// samples (DefaultDistributionCap when capHint <= 0).
func NewDistribution(capHint int) *Distribution {
	if capHint <= 0 {
		capHint = DefaultDistributionCap
	}
	return &Distribution{max: capHint}
}

// Add records one observation. Once the reservoir is full the oldest
// observation is replaced (FIFO), mirroring the Metric Manager's selective
// forgetting of stale invocations.
func (d *Distribution) Add(x float64) {
	if len(d.samples) < d.max {
		d.samples = append(d.samples, x)
	} else {
		d.samples[d.next] = x
		d.next = (d.next + 1) % d.max
	}
	d.sorted = false
}

// Len reports the number of retained samples.
func (d *Distribution) Len() int { return len(d.samples) }

// Sample draws one value by inverse-transform sampling of the empirical
// CDF using u in [0,1). Empty distributions return 0.
//
//caribou:allow unreached the per-event oracle's draw (montecarlo oracle_test.go); production samples baked slices with SampleSorted
func (d *Distribution) Sample(u float64) float64 {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
		d.next = 0 // ring order destroyed by sort; restart FIFO from 0
	}
	return SampleSorted(d.samples, u)
}

// SampleSorted draws one value from an ascending sample slice by
// inverse-transform sampling of its empirical CDF using u in [0,1). It is
// the allocation-free core of Distribution.Sample, exposed so compiled
// evaluation snapshots can sample from baked slices without touching a
// Distribution (whose lazy sort makes Sample unsafe for concurrent use).
// Empty slices return 0.
func SampleSorted(sorted []float64, u float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	rank := u * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// SortedValues returns an ascending copy of the retained samples without
// disturbing the reservoir's insertion order. Snapshot compilation uses
// this to bake distributions into immutable slices shared across
// goroutines.
func (d *Distribution) SortedValues() []float64 {
	out := append([]float64(nil), d.samples...)
	sort.Float64s(out)
	return out
}
