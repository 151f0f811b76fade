package stats

import (
	"math"
	"sort"
	"testing"
)

func TestSampleSortedEdgeCases(t *testing.T) {
	if SampleSorted(nil, 0.5) != 0 {
		t.Error("empty slice should sample 0")
	}
	one := []float64{7}
	for _, u := range []float64{-1, 0, 0.5, 0.999, 1, 2} {
		if SampleSorted(one, u) != 7 {
			t.Errorf("singleton sample at u=%v: got %v", u, SampleSorted(one, u))
		}
	}
	s := []float64{10, 20, 30}
	if got := SampleSorted(s, 0); got != 10 {
		t.Errorf("u=0: %v, want min", got)
	}
	if got := SampleSorted(s, 1); math.Abs(got-30) > 1e-9 {
		t.Errorf("u=1 clamps to just under max: got %v", got)
	}
	if got := SampleSorted(s, 0.5); got != 20 {
		t.Errorf("median: %v, want 20", got)
	}
	if got := SampleSorted(s, 0.25); math.Abs(got-15) > 1e-12 {
		t.Errorf("interpolation: %v, want 15", got)
	}
}

func TestSampleSortedMatchesDistributionSample(t *testing.T) {
	d := NewDistribution(16)
	for _, v := range []float64{5, 1, 9, 3, 7, 2} {
		d.Add(v)
	}
	sorted := d.SortedValues()
	if !sort.Float64sAreSorted(sorted) {
		t.Fatal("SortedValues not ascending")
	}
	for u := 0.0; u < 1; u += 0.07 {
		if d.Sample(u) != SampleSorted(sorted, u) {
			t.Errorf("u=%v: Sample %v != SampleSorted %v", u, d.Sample(u), SampleSorted(sorted, u))
		}
	}
}

func TestSortedValuesDoesNotDisturbReservoir(t *testing.T) {
	// SortedValues must neither mutate the retained samples nor flip the
	// lazy-sort flag — insertion order must be preserved.
	d := NewDistribution(8)
	for _, v := range []float64{3, 1, 2} {
		d.Add(v)
	}
	before := append([]float64(nil), d.samples...)
	s := d.SortedValues()
	s[0] = -99
	after := d.samples
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("reservoir disturbed: %v vs %v", before, after)
		}
	}
}
