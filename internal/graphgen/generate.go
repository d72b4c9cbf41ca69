package graphgen

import (
	"math"
	"math/rand"
)

// PowerLawWeights draws n Pareto-distributed expected degrees with tail
// exponent alpha (> 1), scaled so their mean is avgDeg and capped at
// n-1. The result is shuffled so that degrees appear in random vertex-
// index order, matching the paper's observation that index-based
// mapping sees an effectively random degree mix per crossbar.
func PowerLawWeights(rng *rand.Rand, n int, avgDeg, alpha float64) []float64 {
	if n == 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		u := rng.Float64()
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		w[i] = math.Pow(1-u, -1/(alpha-1)) // Pareto with x_min = 1
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	cap := float64(n - 1)
	if cap < 1 {
		cap = 1
	}
	for i := range w {
		w[i] *= scale
		if w[i] > cap {
			w[i] = cap
		}
		if w[i] < 0 {
			w[i] = 0
		}
	}
	rng.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
	return w
}

// ChungLu samples a graph where edge (u,v) appears with probability
// ≈ w_u·w_v / Σw, producing a graph whose expected degree sequence is
// w. This is the standard model for synthesising power-law graphs with
// a prescribed average degree.
//
// The implementation uses the efficient sorted-weight skipping
// algorithm (Miller & Hagberg 2011), O(n + m).
func ChungLu(rng *rand.Rand, weights []float64) *Graph {
	n := len(weights)
	// Work on vertices sorted by descending weight; remap at the end.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Simple index sort by weight descending.
	sortByWeightDesc(order, weights)
	w := make([]float64, n)
	for i, v := range order {
		w[i] = weights[v]
	}
	var sumW float64
	for _, x := range w {
		sumW += x
	}
	var pairs [][2]int
	if sumW == 0 {
		return FromEdges(n, nil)
	}
	for i := 0; i < n-1; i++ {
		if w[i] == 0 {
			break
		}
		j := i + 1
		p := math.Min(w[i]*w[j]/sumW, 1)
		for j < n && p > 0 {
			if p != 1 {
				r := rng.Float64()
				// Skip ahead geometrically.
				skip := int(math.Floor(math.Log(r) / math.Log(1-p)))
				j += skip
			}
			if j >= n {
				break
			}
			q := math.Min(w[i]*w[j]/sumW, 1)
			if rng.Float64() < q/p {
				pairs = append(pairs, [2]int{order[i], order[j]})
			}
			p = q
			j++
		}
	}
	return FromEdges(n, pairs)
}

func sortByWeightDesc(order []int, weights []float64) {
	// Insertion-free: use sort.Slice equivalent without importing sort
	// twice — simple helper.
	quickSortDesc(order, weights, 0, len(order)-1)
}

func quickSortDesc(order []int, w []float64, lo, hi int) {
	for lo < hi {
		p := w[order[(lo+hi)/2]]
		i, j := lo, hi
		for i <= j {
			for w[order[i]] > p {
				i++
			}
			for w[order[j]] < p {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half to bound stack depth.
		if j-lo < hi-i {
			quickSortDesc(order, w, lo, j)
			lo = i
		} else {
			quickSortDesc(order, w, i, hi)
			hi = j
		}
	}
}

// PowerLaw samples an n-vertex Chung-Lu graph with power-law expected
// degrees (tail exponent alpha) and the given average degree.
func PowerLaw(rng *rand.Rand, n int, avgDeg, alpha float64) *Graph {
	return ChungLu(rng, PowerLawWeights(rng, n, avgDeg, alpha))
}

// DCSBMConfig configures a degree-corrected stochastic block model.
type DCSBMConfig struct {
	N           int
	Communities int
	AvgDeg      float64
	// Alpha is the power-law tail exponent of the degree weights.
	Alpha float64
	// InFraction is the fraction of each vertex's edge mass directed at
	// its own community (0.5 = no community structure, 1 = pure blocks).
	InFraction float64
}

// DCSBM samples a degree-corrected stochastic block model: vertices get
// power-law degree weights and a community; edges prefer same-community
// endpoints. It returns the graph and each vertex's community id —
// the label source for the synthetic node-classification tasks.
func DCSBM(rng *rand.Rand, cfg DCSBMConfig) (*Graph, []int) {
	if cfg.Communities < 1 {
		cfg.Communities = 1
	}
	comm := make([]int, cfg.N)
	for v := range comm {
		comm[v] = rng.Intn(cfg.Communities)
	}
	w := PowerLawWeights(rng, cfg.N, cfg.AvgDeg, cfg.Alpha)

	// Split each vertex's weight into in-community and cross-community
	// mass and run Chung-Lu separately within each community and on the
	// full graph for the cross part.
	inW := make([]float64, cfg.N)
	outW := make([]float64, cfg.N)
	for v := range w {
		inW[v] = w[v] * cfg.InFraction
		outW[v] = w[v] * (1 - cfg.InFraction)
	}
	var pairs [][2]int
	// In-community subgraphs.
	for c := 0; c < cfg.Communities; c++ {
		var members []int
		for v := 0; v < cfg.N; v++ {
			if comm[v] == c {
				members = append(members, v)
			}
		}
		sub := make([]float64, len(members))
		for i, v := range members {
			sub[i] = inW[v]
		}
		g := ChungLu(rng, sub)
		for u := 0; u < g.N; u++ {
			for _, x := range g.Neighbors(u) {
				if u < x {
					pairs = append(pairs, [2]int{members[u], members[x]})
				}
			}
		}
	}
	// Cross-community edges over the whole vertex set.
	g := ChungLu(rng, outW)
	for u := 0; u < g.N; u++ {
		for _, x := range g.Neighbors(u) {
			if u < x && comm[u] != comm[x] {
				pairs = append(pairs, [2]int{u, x})
			}
		}
	}
	return FromEdges(cfg.N, pairs), comm
}
