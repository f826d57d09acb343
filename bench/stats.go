package main

import (
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a percentile's rank before
// that percentile is worth reporting.
const minBeyond = 10

// tailLadder lists the percentiles a timing's tail may be reported at, in
// basis points (9990 = p99.9).
var tailLadder = []int{5000, 9000, 9900, 9990, 9999}

// rank returns the 1-based nearest rank of percentile bp (basis points) in
// n samples: the smallest k with at least bp/10000 of the samples at or
// below the k-th smallest.
func rank(bp, n int) int {
	k := (bp*n + 9999) / 10000
	return max(1, min(k, n))
}

// nearestRank returns percentile bp of sorted samples (0 when empty).
func nearestRank(sorted []float64, bp int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(bp, len(sorted))-1]
}

// tailPercentile returns the highest percentile on tailLadder, in basis
// points, that leaves at least minBeyond of n samples above its rank, or 0
// when not even the median does.
func tailPercentile(n int) int {
	best := 0
	for _, bp := range tailLadder {
		if n-rank(bp, n) >= minBeyond {
			best = bp
		}
	}
	return best
}

// median is statistics.median: the middle value, or the mean of the two
// middle values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so spreads printed here match that tool.
// It needs at least two samples; with fewer both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// dist is a sorted sample of timings in one unit.
type dist []float64

// newDist converts durations to unit (e.g. time.Millisecond) and sorts them.
func newDist(ds []time.Duration, unit time.Duration) dist {
	out := make(dist, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	slices.Sort(out)
	return out
}

func (d dist) pct(bp int) float64 { return nearestRank(d, bp) }
