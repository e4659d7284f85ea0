package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs, or the mean of the two middle values
// when len(xs) is even (Python's statistics.median). It is 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
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

// quartiles returns the first and third quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads read the same here and in any script that checks the
// benchmark. One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tail returns the highest whole percentile of xs that still has at least
// ten samples above it, and the nearest-rank value at that percentile. With
// 20 samples or fewer no percentile above the median qualifies, and ok is
// false.
func tail(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	if n <= 20 {
		return 0, 0, false
	}
	pct = 100 * (n - 10) / n
	return pct, percentile(xs, float64(pct)), true
}

// percentile is the nearest-rank pct-th percentile of xs, 0 for no values.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	rank := max(1, int(math.Ceil(pct/100*float64(len(xs)))))
	return sorted(xs)[rank-1]
}
