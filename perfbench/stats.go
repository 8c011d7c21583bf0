package main

import (
	"fmt"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// the benchmark to report it: a p99 needs at least 1000 samples, a median
// at least 20.
const minBeyond = 10

// tailLadder lists, in per-mille and highest first, the percentiles a tail
// may be reported at.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// supported reports whether n samples leave at least minBeyond of them
// beyond the permille-th percentile. Integer arithmetic keeps the boundary
// exact (n = 1000 supports p99; n = 999 does not).
func supported(n, permille int) bool {
	return n*(1000-permille) >= minBeyond*1000
}

// percentile returns the permille-th percentile of xs, or an error when
// the sample is too small to support it.
func percentile(xs []float64, permille int) (float64, error) {
	if !supported(len(xs), permille) {
		return 0, fmt.Errorf("p%s needs %d samples, have %d", pctLabel(permille),
			(minBeyond*1000+999-permille)/(1000-permille), len(xs))
	}
	s := sortedCopy(xs)
	return quantile(s, float64(permille)/1000), nil
}

// tail returns the highest percentile of tailLadder that xs supports and its
// value; ok is false when not even the median is supported.
func tail(xs []float64) (permille int, v float64, ok bool) {
	for _, pm := range tailLadder {
		if supported(len(xs), pm) {
			return pm, quantile(sortedCopy(xs), float64(pm)/1000), true
		}
	}
	return 0, 0, false
}

// pctLabel renders a per-mille percentile as its conventional name: 990 →
// "99", 999 → "99.9".
func pctLabel(permille int) string {
	if permille%10 == 0 {
		return fmt.Sprint(permille / 10)
	}
	return fmt.Sprintf("%d.%d", permille/10, permille%10)
}

// median of xs (0 for an empty slice); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sortedCopy(xs), 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of sorted
// (the "type 7" estimator).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
