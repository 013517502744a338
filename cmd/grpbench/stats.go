package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 1) of xs by linear
// interpolation between closest ranks, and how many samples lie strictly
// beyond the rank it was read at. The rule the benchmark follows: a tail
// percentile is only reported when at least ten samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	return v, len(s) - 1 - hi
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (exclusive
// method) — the rule the acceptance driver applies to ten runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// i-th of 4 cut points over n+1 intervals; the rank is clamped to
		// the data and the weight taken after clamping, as Python does.
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound is judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 || math.IsNaN(q2) {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
