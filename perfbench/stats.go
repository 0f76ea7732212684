package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile is the q-quantile (0..1) of sorted samples by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPermille are the candidate tail percentiles in tenths of a percent,
// highest first (integers, so the ten-beyond count is exact).
var tailPermille = []int{999, 990, 980, 950, 900, 750, 500}

// dist summarizes a sample of timings: the median and the highest
// percentile that still has at least ten samples beyond it, with the
// sample count. A percentile with fewer samples past it reads one
// outlier as a tail, so it is never reported.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // which percentile Tail is; 0 when N < 20
}

// summarize applies the tail rule to samples (any order).
func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	d := dist{N: n, P50: quantile(s, 0.5)}
	for _, pm := range tailPermille {
		rank := (pm*n + 999) / 1000 // nearest rank, 1-based
		if rank >= 1 && n-rank >= 10 {
			d.Tail, d.TailPct = s[rank-1], float64(pm)/10
			return d
		}
	}
	return d
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
