package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie strictly beyond a reported
// percentile. A p99 read from fewer than 1000 samples has fewer than ten
// observations above it, so it is the maximum of a handful of runs, not a
// tail estimate.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, or an error if fewer than minTail samples lie beyond
// it. Use highestPercentile to pick a p the sample supports.
func percentile(xs []float64, p float64) (float64, error) {
	if !supports(len(xs), p) {
		return 0, fmt.Errorf("p%g needs at least %d samples (%d beyond it), have %d",
			p, neededFor(p), minTail, len(xs))
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1], nil
}

// highestPercentile returns the highest of the standard percentiles
// (99.9, 99, 95, 90, 75, 50) that has at least minTail samples beyond it,
// with its value. ok is false when even the median is unsupported.
func highestPercentile(xs []float64) (p, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if v, err := percentile(xs, p); err == nil {
			return p, v, true
		}
	}
	return 0, 0, false
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// sorted samples. The epsilon absorbs binary rounding of p/100, so that
// p99.9 of 10000 samples is rank 9990, not 9991.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// supports reports whether n samples leave at least minTail beyond the
// p-th percentile.
func supports(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

// neededFor is the smallest sample count that supports the p-th percentile.
func neededFor(p float64) int {
	n := 1
	for !supports(n, p) {
		n++
	}
	return n
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
