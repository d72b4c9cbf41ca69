// Package mapping implements GoPIM's vertex-to-crossbar data mapping
// strategies and the selective vertex-updating schemes built on them:
//
//   - IndexLayout — vertices in index order, the strategy of ReGraphX
//     and SlimGNN (paper §III-B). Under skewed degree distributions it
//     yields crossbars with wildly different average degrees (Fig. 6),
//     so degree-ranked selective updating may not shorten the write
//     critical path at all (Fig. 7, "OSU").
//   - InterleavedLayout — vertices sorted by degree and striped
//     round-robin across crossbars (Fig. 11), so every crossbar holds
//     the same mix of degree classes and selective updating reduces
//     every crossbar's writes equally (Fig. 12, "ISU").
//
// An UpdatePlan selects the top-θ fraction of vertices by degree as
// "important" (rewritten every epoch); the rest refresh every
// StalePeriod epochs (paper §VI-A: 20).
package mapping

import (
	"fmt"
	"slices"
)

// Layout is an ordered placement of vertices onto crossbar groups.
// Consecutive runs of GroupSize vertices in Order share a crossbar
// (the paper's Figs. 6/11 granularity).
type Layout struct {
	// Order lists vertex ids in mapped order: Order[p] is the vertex in
	// placement slot p.
	Order []int
	// GroupSize is the number of vertices per crossbar (the crossbar
	// row count, 64 for the Table II chip).
	GroupSize int
	// Policy names the strategy for display ("index", "interleaved").
	Policy string
	// PhysGroups maps logical group g to the physical crossbar id
	// holding it. Nil means the identity (group g lives on crossbar g);
	// fault-aware layouts skip retired crossbars here, so the logical
	// striping — and with it every timing quantity below — is untouched
	// while ISU writes land on healthy cells.
	PhysGroups []int

	// byDeg is the degree-ranked vertex order the striping was derived
	// from (rank k → vertex), kept by the interleaved constructors so
	// ApplyDelta can re-rank incrementally. Nil for index layouts.
	byDeg []int
	// delta is ApplyDelta's carried state, nil until its first call.
	delta *deltaState
}

// Equal reports whether two layouts place, route and rank their
// vertices identically: the same Order, GroupSize, Policy, PhysGroups
// and degree ranking. What ApplyDelta carries between calls is not
// compared.
func (l *Layout) Equal(o *Layout) bool {
	return slices.Equal(l.Order, o.Order) && l.GroupSize == o.GroupSize &&
		l.Policy == o.Policy && slices.Equal(l.PhysGroups, o.PhysGroups) &&
		slices.Equal(l.byDeg, o.byDeg)
}

func newLayout(order []int, groupSize int, policy string) *Layout {
	if groupSize < 1 {
		panic(fmt.Sprintf("mapping: group size %d must be positive", groupSize))
	}
	return &Layout{Order: order, GroupSize: groupSize, Policy: policy}
}

// IndexLayout places vertices in vertex-index order.
func IndexLayout(n, groupSize int) *Layout {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return newLayout(order, groupSize, "index")
}

// InterleavedLayout sorts vertices by descending degree and stripes
// them round-robin across the ceil(n/groupSize) crossbar groups: the
// k-th highest-degree vertex goes to group k mod numGroups. Every
// group therefore receives one vertex from each similar-degree scope
// (paper Fig. 11).
func InterleavedLayout(degrees []float64, groupSize int) *Layout {
	n := len(degrees)
	byDeg := rankByDegree(degrees)
	groups := numGroups(n, groupSize)
	order := make([]int, n)
	for i := range order {
		order[i] = -1
	}
	// Sorted rank k lands in group k%groups at intra-group position
	// k/groups; convert to a flat slot. When n is not a multiple of
	// groupSize the last group is short, so late ranks can collide or
	// overflow — those spill into the first free slot.
	next := 0 // scan cursor for free slots
	for k, v := range byDeg {
		g := k % groups
		pos := k / groups
		slot := g*groupSize + pos
		if slot >= n || order[slot] != -1 {
			for order[next] != -1 {
				next++
			}
			slot = next
		}
		order[slot] = v
	}
	l := newLayout(order, groupSize, "interleaved")
	l.byDeg = byDeg
	return l
}

// InterleavedLayoutHealthy is InterleavedLayout over a chip with
// retired crossbars: the logical degree-striped placement is exactly
// InterleavedLayout's — the degree-mix invariant holds by construction
// — but each logical group is assigned the next healthy physical
// crossbar, skipping ids whose dead flag is set. A fully-dead crossbar
// therefore receives no stripe; its would-be stripe shifts to the next
// healthy id. Indices beyond len(dead) are treated as healthy, so a
// short (or nil) dead slice degrades to the identity mapping.
func InterleavedLayoutHealthy(degrees []float64, groupSize int, dead []bool) *Layout {
	l := InterleavedLayout(degrees, groupSize)
	l.PhysGroups = healthyPhysGroups(nil, l.NumGroups(), dead)
	l.Policy = "interleaved-healthy"
	return l
}

// healthyPhysGroups assigns each of numGroups logical groups the next
// physical crossbar id whose dead flag is unset. Indices beyond
// len(dead) count as healthy, so a fully-dead flag slice shifts every
// group past the damaged region rather than failing: phys ids stay
// strictly increasing (hence distinct) by construction. The result
// reuses dst's array when it fits.
func healthyPhysGroups(dst []int, numGroups int, dead []bool) []int {
	phys := resized(dst, numGroups)
	next := 0
	for g := range phys {
		for next < len(dead) && dead[next] {
			next++
		}
		phys[g] = next
		next++
	}
	return phys
}

func numGroups(n, groupSize int) int {
	if n == 0 {
		return 0
	}
	return (n + groupSize - 1) / groupSize
}

// NumGroups returns the number of crossbar groups in the layout.
func (l *Layout) NumGroups() int { return numGroups(len(l.Order), l.GroupSize) }

// GroupVertices returns the vertex ids mapped to group g.
func (l *Layout) GroupVertices(g int) []int {
	start := g * l.GroupSize
	end := start + l.GroupSize
	if end > len(l.Order) {
		end = len(l.Order)
	}
	return l.Order[start:end]
}

// GroupAvgDegrees returns the average degree of the vertices mapped to
// each crossbar group — the quantity plotted in paper Fig. 6.
func (l *Layout) GroupAvgDegrees(degrees []float64) []float64 {
	out := make([]float64, l.NumGroups())
	for g := range out {
		vs := l.GroupVertices(g)
		if len(vs) == 0 {
			continue
		}
		var sum float64
		for _, v := range vs {
			sum += degrees[v]
		}
		out[g] = sum / float64(len(vs))
	}
	return out
}

// MinMax returns the smallest and largest values of a non-empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// UpdatePlan selects which vertices are rewritten onto crossbars in a
// given epoch (paper §VI-A/§VI-C).
type UpdatePlan struct {
	// Important marks the top-θ fraction of vertices by degree.
	Important []bool
	// Theta is the fraction of vertices treated as important.
	Theta float64
	// StalePeriod is the refresh interval for non-important vertices
	// (every StalePeriod-th epoch rewrites everything). Period 1 means
	// full updates every epoch.
	StalePeriod int
}

// FullUpdatePlan updates every vertex every epoch (no sparsification).
func FullUpdatePlan(n int) *UpdatePlan {
	imp := make([]bool, n)
	for i := range imp {
		imp[i] = true
	}
	return &UpdatePlan{Important: imp, Theta: 1, StalePeriod: 1}
}

// NewUpdatePlan ranks vertices by degree and marks the top theta
// fraction (rounded down, at least one vertex for theta > 0) important.
// Where an interleaved layout of the same degrees exists, its
// UpdatePlan gives the same plan without ranking again.
func NewUpdatePlan(degrees []float64, theta float64, stalePeriod int) *UpdatePlan {
	return planFromRank(rankByDegree(degrees), theta, stalePeriod)
}

// UpdatePlan marks the top theta fraction of the layout's degree
// ranking important: bit for bit the plan NewUpdatePlan builds from the
// degrees the layout was ranked on. It panics on an index layout, which
// carries no ranking.
func (l *Layout) UpdatePlan(theta float64, stalePeriod int) *UpdatePlan {
	if l.byDeg == nil {
		panic(fmt.Sprintf("mapping: UpdatePlan needs an interleaved layout, have %q", l.Policy))
	}
	return planFromRank(l.byDeg, theta, stalePeriod)
}

// planFromRank marks the leading theta fraction of a degree ranking
// (rank k → vertex) important.
func planFromRank(rank []int, theta float64, stalePeriod int) *UpdatePlan {
	if theta < 0 || theta > 1 {
		panic(fmt.Sprintf("mapping: theta %v out of [0,1]", theta))
	}
	if stalePeriod < 1 {
		panic(fmt.Sprintf("mapping: stale period %d must be ≥ 1", stalePeriod))
	}
	n := len(rank)
	k := int(theta * float64(n))
	if theta > 0 && k == 0 && n > 0 {
		k = 1
	}
	imp := make([]bool, n)
	for _, v := range rank[:k] {
		imp[v] = true
	}
	return &UpdatePlan{Important: imp, Theta: theta, StalePeriod: stalePeriod}
}

// AdaptiveTheta returns the paper's adaptive threshold for a graph with
// the given average degree: 0.5 for dense graphs (avg degree > 8),
// 0.8 for sparse ones (§VI-C).
func AdaptiveTheta(avgDeg float64) float64 {
	if avgDeg > 8 {
		return 0.5
	}
	return 0.8
}

// UpdatedThisEpoch reports whether vertex v is rewritten in the given
// epoch: important vertices always, others on refresh epochs.
func (p *UpdatePlan) UpdatedThisEpoch(v, epoch int) bool {
	return p.Important[v] || epoch%p.StalePeriod == 0
}

// AvgUpdateFraction is the steady-state fraction of vertices rewritten
// per epoch: θ + (1−θ)/StalePeriod.
func (p *UpdatePlan) AvgUpdateFraction() float64 {
	return p.Theta + (1-p.Theta)/float64(p.StalePeriod)
}

// UpdatedRowsPerGroup counts, per crossbar group, how many vertex rows
// are rewritten in the given epoch. The slowest group bounds the
// update latency (writes within a crossbar are serial, crossbars
// operate in parallel) — the "cycles" of the paper's Figs. 7 and 12.
func (l *Layout) UpdatedRowsPerGroup(p *UpdatePlan, epoch int) []int {
	out := make([]int, l.NumGroups())
	for g := range out {
		for _, v := range l.GroupVertices(g) {
			if p.UpdatedThisEpoch(v, epoch) {
				out[g]++
			}
		}
	}
	return out
}

// MaxUpdatedRows returns the largest per-group row count for the epoch.
func (l *Layout) MaxUpdatedRows(p *UpdatePlan, epoch int) int {
	max := 0
	for _, c := range l.UpdatedRowsPerGroup(p, epoch) {
		if c > max {
			max = c
		}
	}
	return max
}
