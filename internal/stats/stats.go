// Package stats provides the summary statistics used throughout the
// benchmark harness: mean, standard deviation, median, range and
// percentiles. It mirrors the aggregation the paper applies
// to Prefect flow-run durations when producing Table 2.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics of a sample, in the same shape
// as the rows of the paper's Table 2 (N, mean ± SD, median, [min, max]).
type Summary struct {
	N      int
	Mean   float64
	SD     float64
	Median float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[n-1]
	s.Median = Quantile(sorted, 0.5)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(n)
	if n > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.SD = math.Sqrt(ss / float64(n-1))
	}
	return s
}

// String renders the summary as a Table 2 style row fragment, with
// durations rounded to whole units.
func (s Summary) String() string {
	return fmt.Sprintf("N=%d mean=%.0f±%.0f med=%.0f range=[%.0f, %.0f]",
		s.N, s.Mean, s.SD, s.Median, s.Min, s.Max)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of sorted xs using linear
// interpolation between closest ranks. xs must be sorted ascending and
// non-empty.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Percentile is Quantile over an unsorted sample, expressed in percent.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Quantile(sorted, p/100)
}

// RMSE returns the root-mean-square error between a and b, which must have
// equal length. It is the reconstruction-quality metric used by the
// algorithm ablation (experiment A1).
func RMSE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: RMSE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(a)))
}

// Pearson returns the Pearson correlation coefficient between a and b.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return math.NaN()
	}
	sa := Summarize(a)
	sb := Summarize(b)
	var cov float64
	for i := range a {
		cov += (a[i] - sa.Mean) * (b[i] - sb.Mean)
	}
	cov /= float64(len(a) - 1)
	if sa.SD == 0 || sb.SD == 0 {
		return math.NaN()
	}
	return cov / (sa.SD * sb.SD)
}
