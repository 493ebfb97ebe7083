package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of samples by linear
// interpolation between closest ranks (the definition numpy and Python's
// statistics module call "inclusive"). It sorts samples in place and returns
// 0 for an empty slice.
func quantile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sortInt64(samples)
	return sortedQuantile(samples, q)
}

// sortedQuantile is quantile over already-sorted samples.
func sortedQuantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return float64(sorted[n-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

// minBeyond is the number of samples a reported tail percentile must have
// above it.
const minBeyond = 10

// tail returns the q-quantile of samples (sorting them in place), lowered to
// the highest quantile with minBeyond samples above it when the run is too
// short to support q — but never below the median.
func tail(samples []int64, q float64) float64 {
	sortInt64(samples)
	return sortedQuantile(samples, supported(len(samples), q))
}

// blockTail estimates a tail quantile robustly over a run of samples in
// arrival order: it splits them into consecutive blocks just large enough
// for each block's q-quantile to have minBeyond samples above it, takes
// that quantile per block, and returns the blocks' median. A burst of
// interference from outside the program then moves one block, not the
// result. Runs too short for two blocks fall back to tail over all samples.
// samples is left unmodified.
func blockTail(samples []int64, q float64) float64 {
	size := int(math.Round(minBeyond/(1-q))) + 1
	n := len(samples) / size
	if n < 2 {
		return tail(append([]int64(nil), samples...), q)
	}
	vals := make([]float64, n)
	for i := range vals {
		lo, hi := i*len(samples)/n, (i+1)*len(samples)/n
		vals[i] = tail(append([]int64(nil), samples[lo:hi]...), q)
	}
	return medianFloat(vals)
}

// supported is the highest quantile <= q that n samples support.
func supported(n int, q float64) float64 {
	if n <= minBeyond+1 {
		return 0.5
	}
	if max := float64(n-1-minBeyond) / float64(n-1); q > max {
		return math.Max(max, 0.5)
	}
	return q
}

func sortInt64(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// medianFloat returns the median of v (sorting it in place), 0 when empty.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

const (
	usec = 1e3
	msec = 1e6
	sec  = 1e9
)
