package mapping

import (
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
// order; every degree source in this module is finite. The result has
// one slot of spare capacity, which ApplyDelta's merge uses.
func rankByDegree(degrees []float64) []int {
	rank := make([]int, len(degrees), len(degrees)+1)
	for i := range rank {
		rank[i] = i
	}
	sortByDegree(rank, degrees)
	return rank
}

// sortByDegree stably sorts the ids by descending degrees[id]: ids in
// ascending order come out in rankByDegree's order, restricted to them.
//
// It is a stable LSD radix sort on an order-preserving uint64 image of
// each degree, one 8-bit digit per pass, skipping any pass where every
// key shares the digit. The stable passes leave equal keys in their
// input order, so the result equals sort.SliceStable with
// degrees[a] > degrees[b]. Each pass re-derives the keys from the
// degrees rather than carrying them, so the only scratch is one pooled
// buffer of len(ids) ids.
func sortByDegree(ids []int, degrees []float64) {
	n := len(ids)
	if n == 0 {
		return
	}
	var counts [8][256]int
	for _, v := range ids {
		k := descKey(degrees[v])
		for p := range counts {
			counts[p][byte(k>>(8*p))]++
		}
	}
	buf := rankPool.Get().(*[]int)
	defer rankPool.Put(buf)
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	src, dst := ids, (*buf)[:n]
	k0 := descKey(degrees[ids[0]])
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
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}

// sortKeyed stably sorts ids by ascending keys, keys[j] being ids[j]'s
// key, and permutes keys along: the radix of sortByDegree on keys the
// caller already holds, so no pass goes back to the degrees. idBuf and
// keyBuf are scratch of at least len(ids) entries.
func sortKeyed(ids []int, keys []uint64, idBuf []int, keyBuf []uint64) {
	n := len(ids)
	if n == 0 {
		return
	}
	var counts [8][256]int
	for _, k := range keys {
		for p := range counts {
			counts[p][byte(k>>(8*p))]++
		}
	}
	srcI, srcK, dstI, dstK := ids, keys, idBuf[:n], keyBuf[:n]
	for p := range counts {
		c := &counts[p]
		shift := 8 * p
		if c[byte(keys[0]>>shift)] == n {
			continue // every key shares this digit
		}
		off := 0
		for b, cnt := range c {
			c[b] = off
			off += cnt
		}
		for i, k := range srcK {
			b := byte(k >> shift)
			dstI[c[b]], dstK[c[b]] = srcI[i], k
			c[b]++
		}
		srcI, srcK, dstI, dstK = dstI, dstK, srcI, srcK
	}
	if &srcI[0] != &ids[0] {
		copy(ids, srcI)
		copy(keys, srcK)
	}
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
