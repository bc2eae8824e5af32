package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p % of the samples at
// or below it. An empty slice reads 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// median is the 50th nearest-rank percentile of an unsorted slice.
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// stretchPercentile reads the p-th percentile on each of up to five equal,
// consecutive stretches of samples kept in the order they were taken, and
// returns the median of those readings. A tail percentile of the whole run
// is decided by whether a neighbour on the shared host was busy for more
// or less than (100 − p) % of it; a stretch's is not, unless the neighbour
// was busy in most of them. Each stretch keeps ten samples beyond its own
// reading; a run too short for three such stretches is read whole.
func stretchPercentile(inOrder []float64, p float64) float64 {
	per := int(math.Ceil(1000/(100-p))) + 1
	n := len(inOrder) / per
	if n > 5 {
		n = 5
	}
	if n < 3 {
		return percentile(sorted(inOrder), p)
	}
	per = len(inOrder) / n
	readings := make([]float64, n)
	for i := range readings {
		readings[i] = percentile(sorted(inOrder[i*per:(i+1)*per]), p)
	}
	return median(readings)
}

// tailPercentile is the highest percentile of n samples that still has at
// least ten samples beyond it — the tail a run of that length can report
// without reading single outliers. It is 0 when n <= 10.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 100 * float64(n-10) / float64(n)
}

// nsToFloat converts nanosecond samples to a float slice scaled by 1/div
// (1e3 for µs, 1e6 for ms), ascending.
func nsToFloat(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	sort.Float64s(out)
	return out
}
