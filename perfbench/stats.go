package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples a reported percentile must leave above
// it: a tail percentile resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile (0 < q < 100) of
// xs. It refuses a percentile that leaves fewer than minBeyond samples
// above it, so p99 needs at least 1000 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if q <= 0 || q >= 100 {
		return 0, fmt.Errorf("percentile %v out of range (0,100)", q)
	}
	rank := int(math.Ceil(q / 100 * float64(n))) // 1-based
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples leaves %d beyond it, want at least %d",
			q, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}
