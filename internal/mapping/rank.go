package mapping

import (
	"cmp"
	"math"
	"sync"
)

// rankPool holds rankByDegree's ping-pong buffer so that repeated
// rankings reuse it instead of allocating per call.
var rankPool = sync.Pool{New: func() any { return new([]int) }}

// rankByDegree returns the vertex ids ordered by descending degree,
// ties broken by ascending id — the ranking both the interleaved
// layout and the ISU plan are derived from. −0 and +0 compare equal.
// The degrees must not contain NaN, which has no place in a total
// order; every degree source in this module is finite.
//
// It is a stable LSD radix sort on an order-preserving uint64 image of
// each degree, one 8-bit digit per pass, skipping any pass where every
// key shares the digit. Starting from the identity permutation, the
// stable passes leave equal keys in ascending id order, so the result
// equals sort.SliceStable with degrees[a] > degrees[b]. Each pass
// re-derives the keys from the degrees rather than carrying them, so
// the only scratch is one pooled buffer of n ids.
func rankByDegree(degrees []float64) []int {
	n := len(degrees)
	rank := make([]int, n)
	if n == 0 {
		return rank
	}
	var counts [8][256]int
	for i, d := range degrees {
		rank[i] = i
		k := descKey(d)
		for p := range counts {
			counts[p][byte(k>>(8*p))]++
		}
	}
	buf := rankPool.Get().(*[]int)
	defer rankPool.Put(buf)
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	src, dst := rank, (*buf)[:n]
	k0 := descKey(degrees[0])
	for p := range counts {
		c := &counts[p]
		shift := 8 * p
		if c[byte(k0>>shift)] == n {
			continue // every key shares this digit
		}
		off := 0
		for b, cnt := range c {
			c[b] = off
			off += cnt
		}
		for _, v := range src {
			b := byte(descKey(degrees[v]) >> shift)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &rank[0] {
		copy(rank, src)
	}
	return rank
}

// descKey maps a non-NaN degree to a uint64 whose ascending order is
// the degree's descending order. The usual sign-magnitude flip gives an
// image ascending with the degree (b|1<<63 for d ≥ +0, ^b for
// negatives); complementing it reverses the order. −0 takes +0's key,
// since the two compare equal.
func descKey(d float64) uint64 {
	b := math.Float64bits(d)
	if d == 0 {
		b = 0
	}
	if b>>63 != 0 {
		return b
	}
	return ^(b | 1<<63)
}

// degreeOrder returns the comparator of rankByDegree's order on vertex
// ids: descending degree, then ascending id. It is for sorting and
// merging subsets of vertices consistently with a full ranking.
func degreeOrder(degrees []float64) func(a, b int) int {
	return func(a, b int) int {
		if da, db := degrees[a], degrees[b]; da != db {
			if da > db {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	}
}
