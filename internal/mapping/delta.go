package mapping

import (
	"fmt"
	"math/bits"
	"slices"
)

// DeltaStats reports what an incremental re-mapping actually did.
type DeltaStats struct {
	// StripesMoved counts placement slots whose occupant changed —
	// the vertex rows that must be rewritten onto a different crossbar.
	StripesMoved int
	// GroupsTouched counts distinct crossbar groups receiving at least
	// one moved stripe.
	GroupsTouched int
	// Full reports that the delta fell back to a from-scratch remap
	// (vertex-count change, a rank window reaching into the spill
	// region of a non-multiple group size, or a majority of vertices
	// re-ranked). The result is identical either way; Full only says
	// how much work it took.
	Full bool
}

// fullRemapFraction is the re-ranked-vertex fraction beyond which a
// from-scratch remap is cheaper than windowed patching.
const fullRemapFraction = 0.5

// stripeTile is the number of intra-group positions the re-stripe
// walk fills per pass over the groups: eight ids are one 64-byte line
// of Order.
const stripeTile = 8

// deltaState is what ApplyDelta carries between calls on one layout.
// The constructors never build it, so a layout that sees no delta pays
// nothing for it.
type deltaState struct {
	// keys[k] is the descKey of rank k's degree. It is empty until
	// built and emptied by a full remap; the next call rebuilds it.
	keys []uint64
	// The next ranking and its keys are merged into the spares, which
	// then swap places with byDeg and keys.
	spareRank []int
	spareKeys []uint64
	// changed is a bitset over vertex ids, touched one over groups;
	// moved and movedKeys hold the re-sorted changed ids.
	changed, touched []uint64
	moved            []int
	movedKeys        []uint64
}

// ApplyDelta re-derives an interleaved layout in place after a degree
// update, moving only the stripes whose degree rank changed. newDegs is
// the full post-mutation degree sequence; changed lists the vertex ids
// whose degree differs from the sequence this layout was built on
// (duplicates and unchanged entries are tolerated). dead carries the
// current per-crossbar retirement flags (nil = all healthy), so a
// retirement wave that lands between deltas re-routes the logical
// groups exactly as InterleavedLayoutHealthy would.
//
// The contract — pinned by TestApplyDeltaMatchesFullRemap — is that the
// updated layout equals a from-scratch InterleavedLayout or
// InterleavedLayoutHealthy of newDegs bit for bit: same Order, same
// slot assignment, same PhysGroups, same ranking. The incremental path
// merges the unchanged vertices' existing rank order with the re-sorted
// changed set (O(n + c·log c), no full sort) and re-stripes only the
// rank window where the two orders differ; anything it cannot patch
// exactly falls back to the full constructor and says so in
// DeltaStats.Full.
//
// The merge compares the rank keys the layout carries, so its loads are
// sequential. The first call on a layout builds them, together with the
// spare buffers and bitsets later calls reuse: after it, a call
// allocates nothing that grows with the vertex count unless it falls
// back to a full remap.
func (l *Layout) ApplyDelta(newDegs []float64, changed []int, dead []bool) DeltaStats {
	if l.byDeg == nil {
		panic(fmt.Sprintf("mapping: ApplyDelta needs an interleaved layout, have %q", l.Policy))
	}
	n := len(l.Order)
	if len(newDegs) != n || len(changed) > int(fullRemapFraction*float64(n)) {
		return l.fullRemap(newDegs, dead)
	}
	if l.delta == nil {
		l.delta = new(deltaState)
	}
	d := l.delta
	isChanged := clearedBits(&d.changed, n)
	for _, v := range changed {
		if v < 0 || v >= n {
			return l.fullRemap(newDegs, dead)
		}
		isChanged[v>>6] |= 1 << (v & 63)
	}
	if len(d.keys) != n {
		// Built from newDegs, so only the unchanged ids get their key:
		// a changed id gets key 0, below every degree's key, so the
		// merge emits nothing at its position.
		d.keys = resized(d.keys, n+1)[:n] // the merge's slack, see below
		for k, v := range l.byDeg {
			d.keys[k] = descKey(newDegs[v]) &^ -(isChanged[v>>6] >> (v & 63) & 1)
		}
	}

	// Degree-rank merge: unchanged vertices keep their relative order
	// (their degrees are untouched, and the ranking breaks ties by
	// ascending vertex id), changed vertices re-sort by rankByDegree's
	// (key, id) order, and a single merge under that same order rebuilds
	// the total ranking. The changed set is listed in ascending id order
	// and ranked by a stable radix on its keys, so equal degrees keep
	// ascending id, as in the full ranking.
	moved, movedKeys := d.moved[:0], d.movedKeys[:0]
	for w, word := range isChanged {
		for ; word != 0; word &= word - 1 {
			v := w<<6 | bits.TrailingZeros64(word)
			moved = append(moved, v)
			movedKeys = append(movedKeys, descKey(newDegs[v]))
		}
	}
	d.moved, d.movedKeys = moved, movedKeys
	newByDeg, newKeys := resized(d.spareRank, n+1), resized(d.spareKeys, n+1)
	d.spareRank, d.spareKeys = newByDeg, newKeys
	sortKeyed(moved, movedKeys, newByDeg, newKeys) // the spares are free until the merge
	// The carried (key, id) pairs ascend along byDeg, a changed id's
	// too: its key is the one it was ranked on (or 0). So moved[j],
	// which precedes the rank-k entry when its key is smaller or equal
	// with a smaller id, also precedes every later unchanged entry, and
	// the merge may emit it whether or not the rank-k id changed. The
	// rank-k id itself is stored either way and kept only if unchanged,
	// which needs one slot of slack past n: every rank and key buffer
	// has it (rankByDegree allocates it), so the two pairs keep swapping
	// without a reallocation.
	out, j := 0, 0
	for k, v := range l.byDeg {
		key := d.keys[k]
		for j < len(moved) && (movedKeys[j] < key || movedKeys[j] == key && moved[j] < v) {
			newByDeg[out], newKeys[out] = moved[j], movedKeys[j]
			out++
			j++
		}
		newByDeg[out], newKeys[out] = v, key
		out += int(1 - isChanged[v>>6]>>(v&63)&1)
	}
	copy(newByDeg[out:], moved[j:])
	copy(newKeys[out:], movedKeys[j:])
	newByDeg, newKeys = newByDeg[:n], newKeys[:n]

	// The affected rank window: outside it the rank → slot striping is
	// untouched, so those stripes stay put bit for bit.
	lo, hi := 0, n-1
	for lo < n && newByDeg[lo] == l.byDeg[lo] {
		lo++
	}
	if lo < n {
		for newByDeg[hi] == l.byDeg[hi] {
			hi--
		}
		// Ranks at or past the spill boundary are placed by the full
		// constructor's first-free-slot scan, whose outcome depends on
		// every earlier placement — not patchable in isolation.
		if hi >= spillRank(n, l.GroupSize) {
			return l.fullRemap(newDegs, dead)
		}
	}
	// Even with the ranks unchanged a changed vertex's key may differ,
	// so the merged keys always replace the carried ones.
	l.byDeg, d.spareRank = newByDeg, l.byDeg
	d.keys, d.spareKeys = newKeys, d.keys
	var stats DeltaStats
	if lo < n {
		stats = l.restripe(lo, hi)
	}
	l.applyPhys(dead)
	return stats
}

// restripe writes the ranks lo..hi (all below the spill rank) of byDeg
// into their slots of Order. Rank k stripes to group g = k%groups at
// position pos = k/groups, slot g·GroupSize + pos. The walk is slot
// major in tiles of stripeTile positions: for each group it fills one
// line of Order from stripeTile sequential streams over byDeg, rather
// than striding across Order once per rank.
func (l *Layout) restripe(lo, hi int) DeltaStats {
	var stats DeltaStats
	groups := l.NumGroups()
	touched := clearedBits(&l.delta.touched, groups)
	rank, order := l.byDeg, l.Order
	posLo, posHi := lo/groups, hi/groups
	for p0 := posLo &^ (stripeTile - 1); p0 <= posHi; p0 += stripeTile {
		for g := 0; g < groups; g++ {
			// This group's positions in the tile whose rank lies in
			// [lo, hi]: the first and last window rows are partial.
			first, last := max(p0, posLo), min(p0+stripeTile-1, posHi)
			if first == posLo && g < lo%groups {
				first++
			}
			if last == posHi && g > hi%groups {
				last--
			}
			moved := 0
			slots := order[g*l.GroupSize:]
			for pos := first; pos <= last; pos++ {
				if v := rank[pos*groups+g]; slots[pos] != v {
					slots[pos] = v
					moved++
				}
			}
			if moved > 0 {
				stats.StripesMoved += moved
				touched[g>>6] |= 1 << (g & 63)
			}
		}
	}
	stats.GroupsTouched = onesCount(touched)
	return stats
}

// fullRemap is ApplyDelta's from-scratch fallback, counting how many
// stripes actually landed somewhere new so the churn counters stay
// honest across both paths. The carried keys go stale; the next
// incremental call rebuilds them into the same buffer.
func (l *Layout) fullRemap(newDegs []float64, dead []bool) DeltaStats {
	fresh := InterleavedLayout(newDegs, l.GroupSize)
	stats := DeltaStats{Full: true}
	groups := fresh.NumGroups()
	touched := make([]uint64, (groups+63)/64)
	for p, v := range fresh.Order {
		if p >= len(l.Order) || l.Order[p] != v {
			stats.StripesMoved++
			g := p / l.GroupSize
			touched[g>>6] |= 1 << (g & 63)
		}
	}
	stats.GroupsTouched = onesCount(touched)
	l.Order, l.byDeg = fresh.Order, fresh.byDeg
	if l.delta != nil {
		l.delta.keys = l.delta.keys[:0]
	}
	l.applyPhys(dead)
	return stats
}

// applyPhys installs the healthy-crossbar routing for the current dead
// flags (nil keeps the identity mapping of a fault-free layout),
// reusing the routing slice.
func (l *Layout) applyPhys(dead []bool) {
	if dead == nil {
		l.PhysGroups = nil
		l.Policy = "interleaved"
		return
	}
	l.PhysGroups = healthyPhysGroups(l.PhysGroups, l.NumGroups(), dead)
	l.Policy = "interleaved-healthy"
}

// spillRank returns the smallest degree rank whose direct stripe slot
// overflows the layout (the last, short group fills up), n if none.
// Only the final group can overflow: rank k lands at slot
// (k%groups)·groupSize + k/groups, and for every non-final group that
// is strictly inside the group's slot range for all k < n.
func spillRank(n, groupSize int) int {
	if n == 0 || n%groupSize == 0 {
		return n
	}
	groups := numGroups(n, groupSize)
	lastLen := n - (groups-1)*groupSize
	k := (groups - 1) + lastLen*groups
	if k > n {
		k = n
	}
	return k
}

// resized returns s with length n, reusing its array when it fits.
// The contents are unspecified.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// clearedBits resizes *b to hold n bits, all clear, and returns it.
func clearedBits(b *[]uint64, n int) []uint64 {
	*b = resized(*b, (n+63)/64)
	clear(*b)
	return *b
}

// onesCount returns the number of set bits.
func onesCount(b []uint64) int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}
