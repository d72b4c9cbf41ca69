package mapping

import (
	"fmt"
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

// ApplyDelta re-derives an interleaved layout after a degree update,
// moving only the stripes whose degree rank changed. newDegs is the
// full post-mutation degree sequence; changed lists the vertex ids
// whose degree differs from the sequence this layout was built on
// (duplicates and unchanged entries are tolerated). dead carries the
// current per-crossbar retirement flags (nil = all healthy), so a
// retirement wave that lands between deltas re-routes the logical
// groups exactly as InterleavedLayoutHealthy would.
//
// The contract — pinned by TestApplyDeltaMatchesFullRemap — is bitwise
// equality with a from-scratch InterleavedLayout/InterleavedLayoutHealthy
// of newDegs: same Order, same slot assignment, same PhysGroups. The
// incremental path merges the unchanged vertices' existing rank order
// with the re-sorted changed set (O(n + c·log c), no full sort) and
// re-stripes only the rank window where the two orders differ; anything
// it cannot patch exactly falls back to the full constructor and says
// so in DeltaStats.Full.
func (l *Layout) ApplyDelta(newDegs []float64, changed []int, dead []bool) (*Layout, DeltaStats) {
	if l.byDeg == nil {
		panic(fmt.Sprintf("mapping: ApplyDelta needs an interleaved layout, have %q", l.Policy))
	}
	n := len(l.Order)
	if len(newDegs) != n || len(changed) > int(fullRemapFraction*float64(n)) {
		return l.fullRemap(newDegs, dead)
	}

	// Degree-rank merge: unchanged vertices keep their relative order
	// (their degrees are untouched, and the ranking breaks ties by
	// ascending vertex id), changed vertices re-sort by rankByDegree's
	// (−degree, id) order, and a single merge under that same order
	// rebuilds the total ranking.
	isChanged := make(map[int]bool, len(changed))
	for _, v := range changed {
		if v < 0 || v >= n {
			return l.fullRemap(newDegs, dead)
		}
		isChanged[v] = true
	}
	kept := make([]int, 0, n-len(isChanged))
	for _, v := range l.byDeg {
		if !isChanged[v] {
			kept = append(kept, v)
		}
	}
	moved := make([]int, 0, len(isChanged))
	for v := range isChanged {
		moved = append(moved, v)
	}
	order := degreeOrder(newDegs)
	slices.SortFunc(moved, order)
	newByDeg := make([]int, 0, n)
	i, j := 0, 0
	for i < len(kept) && j < len(moved) {
		if order(kept[i], moved[j]) < 0 {
			newByDeg = append(newByDeg, kept[i])
			i++
		} else {
			newByDeg = append(newByDeg, moved[j])
			j++
		}
	}
	newByDeg = append(newByDeg, kept[i:]...)
	newByDeg = append(newByDeg, moved[j:]...)

	// The affected rank window: outside it the rank → slot striping is
	// untouched, so those stripes stay put bit for bit.
	lo, hi := 0, n-1
	for lo < n && newByDeg[lo] == l.byDeg[lo] {
		lo++
	}
	out := &Layout{
		Order:     append([]int(nil), l.Order...),
		GroupSize: l.GroupSize,
		Policy:    l.Policy,
		slotOf:    append([]int(nil), l.slotOf...),
		byDeg:     newByDeg,
	}
	var stats DeltaStats
	if lo == n { // ranks identical: only the phys routing can change
		out.applyPhys(dead)
		return out, stats
	}
	for newByDeg[hi] == l.byDeg[hi] {
		hi--
	}
	// Ranks at or past the spill boundary are placed by the full
	// constructor's first-free-slot scan, whose outcome depends on every
	// earlier placement — not patchable in isolation.
	if hi >= spillRank(n, l.GroupSize) {
		return l.fullRemap(newDegs, dead)
	}
	groups := numGroups(n, l.GroupSize)
	touched := map[int]bool{}
	for k := lo; k <= hi; k++ {
		v := newByDeg[k]
		slot := (k%groups)*l.GroupSize + k/groups
		if out.Order[slot] == v {
			continue
		}
		out.Order[slot] = v
		out.slotOf[v] = slot
		stats.StripesMoved++
		touched[slot/l.GroupSize] = true
	}
	stats.GroupsTouched = len(touched)
	out.applyPhys(dead)
	return out, stats
}

// fullRemap is ApplyDelta's from-scratch fallback, counting how many
// stripes actually landed somewhere new so the churn counters stay
// honest across both paths.
func (l *Layout) fullRemap(newDegs []float64, dead []bool) (*Layout, DeltaStats) {
	var out *Layout
	if dead != nil {
		out = InterleavedLayoutHealthy(newDegs, l.GroupSize, dead)
	} else {
		out = InterleavedLayout(newDegs, l.GroupSize)
	}
	stats := DeltaStats{Full: true}
	touched := map[int]bool{}
	for p, v := range out.Order {
		if p >= len(l.Order) || l.Order[p] != v {
			stats.StripesMoved++
			touched[p/l.GroupSize] = true
		}
	}
	stats.GroupsTouched = len(touched)
	return out, stats
}

// applyPhys installs the healthy-crossbar routing for the current dead
// flags (nil keeps the identity mapping of a fault-free layout).
func (l *Layout) applyPhys(dead []bool) {
	if dead == nil {
		l.PhysGroups = nil
		l.Policy = "interleaved"
		return
	}
	l.PhysGroups = healthyPhysGroups(l.NumGroups(), dead)
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
