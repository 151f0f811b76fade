package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceKnownValues(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if m, v := MeanVariance(xs); m != 5 || v != 4 {
		t.Errorf("MeanVariance = %v, %v, want 5, 4", m, v)
	}
}

func TestMeanEmptyAndSingle(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if _, v := MeanVariance([]float64{5}); v != 0 {
		t.Error("variance of single should be 0")
	}
}

func TestGeometricMean(t *testing.T) {
	g, err := GeometricMean([]float64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean = %v, want 4", g)
	}
	if _, err := GeometricMean(nil); err == nil {
		t.Error("want error on empty")
	}
	if _, err := GeometricMean([]float64{1, 0}); err == nil {
		t.Error("want error on zero value")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("want error on empty")
	}
	if v, _ := Percentile([]float64{7}, 95); v != 7 {
		t.Errorf("single-sample p95 = %v", v)
	}
	// Out-of-range p clamps.
	if v, _ := Percentile(xs, -5); v != 15 {
		t.Errorf("p-5 = %v, want min", v)
	}
	if v, _ := Percentile(xs, 150); v != 50 {
		t.Errorf("p150 = %v, want max", v)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

// The NaN fallback keeps the legacy total order: sort.Float64s places
// NaNs before every number, so low percentiles land on NaN and high ones
// interpolate over the numeric tail exactly as the pre-quickselect
// implementation did.
func TestPercentileNaNFallback(t *testing.T) {
	nan := math.NaN()
	xs := []float64{nan, 3, 1, 2} // sorts to [NaN, 1, 2, 3]
	if v, err := Percentile(xs, 0); err != nil || !math.IsNaN(v) {
		t.Errorf("p0 = %v, %v; want NaN", v, err)
	}
	if v, _ := Percentile(xs, 50); math.Abs(v-1.5) > 1e-9 {
		t.Errorf("p50 = %v, want 1.5", v)
	}
	if v, _ := Percentile(xs, 100); v != 3 {
		t.Errorf("p100 = %v, want 3", v)
	}
	// Input with NaNs must survive untouched too.
	if !math.IsNaN(xs[0]) || xs[1] != 3 || xs[2] != 1 || xs[3] != 2 {
		t.Errorf("input mutated: %v", xs)
	}

	// Cross-check the fallback against a reference full-sort
	// implementation over several NaN placements and ranks.
	ref := func(in []float64, p float64) float64 {
		w := append([]float64(nil), in...)
		sort.Float64s(w)
		rank := p / 100 * float64(len(w)-1)
		lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
		if lo == hi {
			return w[lo]
		}
		return w[lo] + (rank-float64(lo))*(w[hi]-w[lo])
	}
	cases := [][]float64{
		{nan, 5},
		{5, nan, nan},
		{9, nan, 4, 7, nan, 1, 8},
		{nan, nan, nan, 2},
	}
	for _, in := range cases {
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 100} {
			got, err := Percentile(in, p)
			if err != nil {
				t.Fatalf("Percentile(%v, %v): %v", in, p, err)
			}
			want := ref(in, p)
			if math.IsNaN(want) {
				if !math.IsNaN(got) {
					t.Errorf("Percentile(%v, %v) = %v, want NaN", in, p, got)
				}
				continue
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("Percentile(%v, %v) = %v, want %v", in, p, got, want)
			}
		}
	}
}

func TestQuickPercentileWithinBounds(t *testing.T) {
	f := func(raw []float64, p8 uint8) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(p8) / 255 * 100
		v, err := Percentile(xs, p)
		if err != nil {
			return false
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return v >= sorted[0] && v <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{100, 200}, []float64{110, 180})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("MAPE = %v, want 10", got)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("want length-mismatch error")
	}
	if _, err := MAPE([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("want error when all actuals are zero")
	}
	// Zero actuals are skipped, not fatal.
	got, err = MAPE([]float64{0, 100}, []float64{5, 90})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("MAPE with skipped zero = %v, want 10", got)
	}
}

func TestDistributionFIFOEviction(t *testing.T) {
	d := NewDistribution(3)
	for _, v := range []float64{1, 2, 3} {
		d.Add(v)
	}
	d.Add(4) // evicts 1
	if len(d.samples) != 3 {
		t.Fatalf("len = %d", len(d.samples))
	}
	for _, v := range d.samples {
		if v == 1 {
			t.Error("oldest sample not evicted")
		}
	}
}

func TestDistributionSampleBoundsAndMonotonic(t *testing.T) {
	d := NewDistribution(0)
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if v := d.Sample(0); v != 1 {
		t.Errorf("sample(0) = %v, want 1", v)
	}
	if v := d.Sample(0.999999); math.Abs(v-100) > 0.01 {
		t.Errorf("sample(~1) = %v, want ~100", v)
	}
	prev := -math.MaxFloat64
	for u := 0.0; u < 1; u += 0.01 {
		v := d.Sample(u)
		if v < prev {
			t.Fatalf("sample not monotone at u=%v: %v < %v", u, v, prev)
		}
		prev = v
	}
}

func TestDistributionEmptySample(t *testing.T) {
	d := NewDistribution(0)
	if v := d.Sample(0.5); v != 0 {
		t.Errorf("empty sample = %v", v)
	}
}

func TestQuickDistributionSampleWithinRange(t *testing.T) {
	f := func(raw []float64, u8 uint8) bool {
		d := NewDistribution(0)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			d.Add(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if d.Len() == 0 {
			return d.Sample(0.5) == 0
		}
		v := d.Sample(float64(u8) / 256)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
