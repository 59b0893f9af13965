package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of v exactly as
// Python's statistics.quantiles(v, n=4) (the default "exclusive"
// method) does — the rule the PR driver applies to a set of runs.
// It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of v as a share of its median:
// the run-to-run noise figure bounds are judged against. Fewer than
// two values, or a zero median (a count of failures), have none (0).
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// tailLevels are the percentiles a timing may be reported at, each with
// the inverse of the share of samples beyond it.
var tailLevels = []struct {
	pct float64
	inv int
}{{50, 2}, {75, 4}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailLevel picks the highest percentile that still has at least ten
// samples beyond it in a sample of n. With fewer than twenty samples
// no level qualifies and ok is false.
func tailLevel(n int) (pct float64, ok bool) {
	for _, l := range tailLevels {
		if n >= 10*l.inv {
			pct, ok = l.pct, true
		}
	}
	return pct, ok
}

// percentile returns the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tail reports v at tailLevel(len(v)); when the sample is too small
// for any level it falls back to the maximum, reported as level 100.
func tail(v []float64) (value, pct float64) {
	if p, ok := tailLevel(len(v)); ok {
		return percentile(v, p), p
	}
	return percentile(v, 100), 100
}
