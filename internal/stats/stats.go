// Package stats provides the small statistical toolkit shared by the
// metrics pipeline, the Monte Carlo estimator, and the evaluation harness:
// empirical distributions, percentiles, geometric means, and coefficients
// of variation.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanVariance returns the mean and the population variance of xs; the
// variance is 0 when fewer than two samples exist.
func MeanVariance(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	var sum float64
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return mean, sum / float64(len(xs))
}

// GeometricMean returns the geometric mean of xs. All values must be
// positive; non-positive values yield an error, matching how the paper
// reports multiplicative carbon ratios.
func GeometricMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geometric mean of non-positive value")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs need not be sorted and is left
// untouched.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	work := append([]float64(nil), xs...)
	return PercentileInPlace(work, p)
}

// PercentileInPlace is Percentile without the defensive copy: it may
// partially reorder xs (the selection step). Order statistics are exact
// values, so results are identical to Percentile; callers that are done
// reading the series in order — such as the Monte Carlo summarizer —
// use it to keep the copy off the estimate hot path.
func PercentileInPlace(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	work := xs
	if len(work) == 1 {
		return work[0], nil
	}
	rank := p / 100 * float64(len(work)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	for _, v := range work {
		if math.IsNaN(v) {
			// Selection with < would misplace NaNs; keep the legacy
			// total order (sort.Float64s places NaNs first) exactly.
			sort.Float64s(work)
			if lo == hi {
				return work[lo], nil
			}
			return work[lo]*(1-frac) + work[hi]*frac, nil
		}
	}
	// High percentiles need only the tail order statistics: ranks lo and
	// lo+1 of n are the (n-lo)-th and (n-lo-1)-th largest. When that tail
	// is small — p95 of a 200-sample Monte Carlo batch needs just the 11
	// largest — a single scan with a bounded sorted tail is several times
	// cheaper than quickselect partitioning and mutates nothing. Order
	// statistics are exact values, so the result is bit-identical.
	if m := len(work) - lo; m <= 24 && m >= 2 {
		vlo, vhi := tailStats(work, m)
		if lo == hi {
			return vlo, nil
		}
		return vlo*(1-frac) + vhi*frac, nil
	}
	selectKth(work, lo)
	if lo == hi {
		return work[lo], nil
	}
	// hi == lo+1, whose order statistic is the minimum of the partition
	// right of lo after selection.
	next := work[hi]
	for _, v := range work[hi+1:] {
		if v < next {
			next = v
		}
	}
	return work[lo]*(1-frac) + next*frac, nil
}

// tailStats returns the m-th and (m-1)-th largest elements of xs (the
// order statistics at ranks len(xs)-m and len(xs)-m+1). It keeps the m
// largest values seen so far in an ascending scratch array: most scanned
// elements fail the single tail[0] comparison, so the expected cost is
// one compare per element plus O(m log(n/m)) insertions. Requires
// 2 <= m <= len(xs) and NaN-free input (callers pre-sort NaN batches).
func tailStats(xs []float64, m int) (float64, float64) {
	var buf [24]float64
	tail := buf[:m]
	copy(tail, xs[:m])
	// Insertion sort of the first m values.
	for i := 1; i < m; i++ {
		for j := i; j > 0 && tail[j] < tail[j-1]; j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	for _, v := range xs[m:] {
		if v <= tail[0] {
			continue
		}
		j := 1
		for j < m && tail[j] < v {
			tail[j-1] = tail[j]
			j++
		}
		tail[j-1] = v
	}
	return tail[0], tail[1]
}

// selectKth partially orders a in place so a[k] holds the k-th smallest
// element, everything left of k is ≤ a[k], and everything right is
// ≥ a[k]. Order statistics are exact values, so replacing the former
// full sort changes no Percentile result — it only drops the O(n log n)
// cost from the Monte Carlo summary hot path. Assumes no NaNs (callers
// pre-sort in that case); pivoting is deterministic (median of three).
func selectKth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for hi-lo > 8 {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// MAPE returns the mean absolute percentage error between forecasts and
// actuals, in percent. Pairs where the actual is zero are skipped.
func MAPE(actual, forecast []float64) (float64, error) {
	if len(actual) != len(forecast) {
		return 0, errors.New("stats: MAPE length mismatch")
	}
	var sum float64
	var n int
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs((actual[i] - forecast[i]) / actual[i])
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return sum / float64(n) * 100, nil
}
