// Package graphgen provides the graph substrate for GoPIM: an explicit
// undirected graph type used by the GCN training engine, synthetic
// generators (Erdős–Rényi, Chung-Lu power-law, degree-corrected
// stochastic block model, preferential attachment), and a lightweight
// DegreeModel used by the timing simulator at full paper scale where
// materialising tens of millions of edges would be wasteful.
//
// The paper evaluates on six Open Graph Benchmark datasets plus Cora.
// Those datasets are not redistributable here, so the catalog in this
// package (see catalog.go) generates synthetic stand-ins matched to
// paper Table III on the statistics GoPIM actually consumes: vertex
// count, edge count, average degree (and its skew), and feature
// dimension.
package graphgen

import (
	"fmt"
	"sync"

	"gopim/internal/sparsemat"
)

// Graph is an undirected simple graph with vertices 0..N-1.
type Graph struct {
	N       int
	adj     *sparsemat.CSR // symmetric binary adjacency, no self loops
	degrees []int
	edges   int // undirected edge count

	// Â = D̃^-1/2 (A+I) D̃^-1/2 and its transpose CSR, computed lazily
	// and cached: accuracy experiments train vanilla and ISU variants
	// on the same Instance, and the normalisation is identical across
	// epochs, runs, and worker counts.
	normOnce sync.Once
	norm     *sparsemat.CSR
	normT    *sparsemat.CSR
}

// FromEdges builds a Graph from undirected edge pairs. Self loops and
// duplicate edges are dropped.
func FromEdges(n int, pairs [][2]int) *Graph {
	seen := make(map[[2]int]bool, len(pairs))
	entries := make([]sparsemat.Entry, 0, 2*len(pairs))
	edges := 0
	for _, p := range pairs {
		u, v := p[0], p[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if u < 0 || v >= n {
			panic(fmt.Sprintf("graphgen: edge (%d,%d) out of range n=%d", p[0], p[1], n))
		}
		key := [2]int{u, v}
		if seen[key] {
			continue
		}
		seen[key] = true
		edges++
		entries = append(entries,
			sparsemat.Entry{Row: u, Col: v, Val: 1},
			sparsemat.Entry{Row: v, Col: u, Val: 1},
		)
	}
	adj := sparsemat.NewFromEntries(n, n, entries)
	degrees := make([]int, n)
	for v := 0; v < n; v++ {
		degrees[v] = adj.RowNNZ(v)
	}
	return &Graph{N: n, adj: adj, degrees: degrees, edges: edges}
}

// Adj returns the symmetric binary adjacency matrix (no self loops).
func (g *Graph) Adj() *sparsemat.CSR { return g.adj }

// NormAdj returns the cached symmetric normalisation Â of the
// adjacency (see sparsemat.SymNormalized). The result is shared;
// callers must not mutate it.
func (g *Graph) NormAdj() *sparsemat.CSR {
	g.normOnce.Do(g.computeNorm)
	return g.norm
}

// NormAdjT returns the cached transpose of NormAdj as a CSR, letting
// the GCN backward pass reuse the row-parallel MulDense path. Â is
// symmetric in values but the explicit transpose keeps the backward
// accumulation order independent of that fact. Shared; do not mutate.
func (g *Graph) NormAdjT() *sparsemat.CSR {
	g.normOnce.Do(g.computeNorm)
	return g.normT
}

func (g *Graph) computeNorm() {
	g.norm = g.adj.SymNormalized()
	g.normT = g.norm.Transpose()
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.degrees[v] }

// Degrees returns the degree sequence indexed by vertex id. The
// returned slice aliases internal state; callers must not mutate it.
func (g *Graph) Degrees() []int { return g.degrees }

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int { return g.edges }

// MaxDegree returns the largest vertex degree, 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, d := range g.degrees {
		if d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the neighbor list of v; the slice aliases internal
// storage and must not be mutated.
func (g *Graph) Neighbors(v int) []int {
	cols, _ := g.adj.Row(v)
	return cols
}

// DegreeModel summarises a graph by its degree sequence only. The
// ReRAM timing model and the mapping-balance experiments consume
// DegreeModels, which lets them run at full paper scale (millions of
// vertices) without materialising edge lists.
type DegreeModel struct {
	N int
	// DegreesByIndex lists vertex degrees in vertex-index order — the
	// order an index-based mapping strategy would place them.
	DegreesByIndex []float64
	// AvgDeg is the mean of DegreesByIndex.
	AvgDeg float64
}

// NewDegreeModel wraps a degree sequence.
func NewDegreeModel(degrees []float64) *DegreeModel {
	m := &DegreeModel{N: len(degrees), DegreesByIndex: degrees}
	var sum float64
	for _, d := range degrees {
		sum += d
	}
	if m.N > 0 {
		m.AvgDeg = sum / float64(m.N)
	}
	return m
}

// DegreeModel derives a DegreeModel from an explicit graph.
func (g *Graph) DegreeModel() *DegreeModel {
	ds := make([]float64, g.N)
	for v, d := range g.degrees {
		ds[v] = float64(d)
	}
	return NewDegreeModel(ds)
}

// TotalEdges returns the (approximate, for synthetic models) number of
// undirected edges implied by the degree sequence.
func (m *DegreeModel) TotalEdges() float64 {
	var sum float64
	for _, d := range m.DegreesByIndex {
		sum += d
	}
	return sum / 2
}
