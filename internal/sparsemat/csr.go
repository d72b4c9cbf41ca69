// Package sparsemat implements compressed sparse row (CSR) matrices
// and the sparse-dense products used by GCN aggregation (Â·H) and its
// backward pass (Âᵀ·G).
//
// GCN aggregation multiplies the (normalised) adjacency matrix by the
// dense feature matrix; adjacency matrices of the paper's datasets are
// far too sparse to store densely, so all graph-side linear algebra in
// this repository goes through this package.
package sparsemat

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"gopim/internal/parallel"
	"gopim/internal/tensor"
)

// CSR is a compressed-sparse-row matrix.
//
// RowPtr has length Rows+1; the column indices of row r are
// ColIdx[RowPtr[r]:RowPtr[r+1]] with matching values in Val.
// Column indices within a row are kept sorted and unique.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// Entry is one (row, col, value) triple used when building a CSR
// matrix from coordinate form.
type Entry struct {
	Row, Col int
	Val      float64
}

// NewFromEntries builds a CSR matrix from coordinate-form entries.
// Duplicate (row, col) pairs are summed. Entries out of range panic.
func NewFromEntries(rows, cols int, entries []Entry) *CSR {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("sparsemat: entry (%d,%d) out of range %dx%d", e.Row, e.Col, rows, cols))
		}
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, sorted[i].Col)
		m.Val = append(m.Val, v)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// RowNNZ returns the number of stored entries in row r.
func (m *CSR) RowNNZ(r int) int { return m.RowPtr[r+1] - m.RowPtr[r] }

// Row returns the column indices and values of row r; the returned
// slices alias the matrix storage.
func (m *CSR) Row(r int) (cols []int, vals []float64) {
	if r < 0 || r >= m.Rows {
		panic(fmt.Sprintf("sparsemat: row %d out of range %d", r, m.Rows))
	}
	return m.ColIdx[m.RowPtr[r]:m.RowPtr[r+1]], m.Val[m.RowPtr[r]:m.RowPtr[r+1]]
}

// At returns element (r, c), 0 if not stored. O(log nnz(row)).
func (m *CSR) At(r, c int) float64 {
	cols, vals := m.Row(r)
	i := sort.SearchInts(cols, c)
	if i < len(cols) && cols[i] == c {
		return vals[i]
	}
	return 0
}

// Sparsity returns the fraction of zero entries, in [0,1].
func (m *CSR) Sparsity() float64 {
	total := float64(m.Rows) * float64(m.Cols)
	if total == 0 {
		return 0
	}
	return 1 - float64(m.NNZ())/total
}

// spmmParallelMinFLOPs is the multiply-add count below which
// MulDenseInto stays serial; tiny aggregations are cheaper than a
// fork/join.
const spmmParallelMinFLOPs = 1 << 15

// MulDenseInto computes dst = m · d, reusing dst's storage. dst must
// be m.Rows × d.Cols and must not alias d.
//
// Each output row runs on the GEMM panel kernel (tensor.SparseRowInto)
// over every stored entry of the row: it starts at +0 and adds each
// term in ascending column order, each product and each add rounded on
// its own, with stored zeros kept. Large products (GCN aggregation Â·H
// and, through Âᵀ, its backward pass) run row-parallel, each row owned
// by one worker, so the result is byte-identical at any worker count.
func (m *CSR) MulDenseInto(dst, d *tensor.Matrix) {
	if m.Cols != d.Rows {
		panic(fmt.Sprintf("sparsemat: MulDense inner dims %d != %d", m.Cols, d.Rows))
	}
	if dst.Rows != m.Rows || dst.Cols != d.Cols {
		panic(fmt.Sprintf("sparsemat: MulDenseInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, d.Cols))
	}
	if len(dst.Data) > 0 && len(d.Data) > 0 && &dst.Data[0] == &d.Data[0] {
		panic("sparsemat: MulDenseInto dst must not alias d")
	}
	if m.NNZ()*d.Cols < spmmParallelMinFLOPs {
		m.mulDenseRows(dst, d, 0, m.Rows)
		return
	}
	// Size blocks by average row cost; power-law rows are imbalanced,
	// but blocks are claimed dynamically so dense rows just slow their
	// own block, never the partitioning.
	avgFlopsPerRow := m.NNZ()*d.Cols/m.Rows + 1
	grain := spmmParallelMinFLOPs / (4 * avgFlopsPerRow)
	// One-worker runs skip the closure build entirely (see
	// parallel.Serial) so aggregation stays allocation-free on
	// single-core hosts.
	if parallel.Serial(m.Rows, grain+1) {
		m.mulDenseRows(dst, d, 0, m.Rows)
		return
	}
	parallel.For(m.Rows, grain+1, func(lo, hi int) {
		m.mulDenseRows(dst, d, lo, hi)
	})
}

// rowOffsets is one block's scratch list of dense-row offsets.
type rowOffsets struct{ offs []int32 }

// rowOffsetsPool recycles offset scratch across calls and blocks, so
// the training loop's aggregation stays allocation-free once warm.
var rowOffsetsPool = sync.Pool{New: func() any { return new(rowOffsets) }}

// mulDenseRows computes dst rows [lo, hi) of m·d, each row owned
// exclusively by its caller block.
func (m *CSR) mulDenseRows(dst, d *tensor.Matrix, lo, hi int) {
	s := rowOffsetsPool.Get().(*rowOffsets)
	defer rowOffsetsPool.Put(s)
	for r := lo; r < hi; r++ {
		start, end := m.RowPtr[r], m.RowPtr[r+1]
		if cap(s.offs) < end-start {
			s.offs = make([]int32, end-start)
		}
		// d.Data's length fits in int32 or SparseRowInto panics before
		// reading an offset, so a wrapped conversion is never used.
		offs := s.offs[:end-start]
		for i, c := range m.ColIdx[start:end] {
			offs[i] = int32(c * d.Cols)
		}
		tensor.SparseRowInto(dst.Row(r), m.Val[start:end], offs, d.Data)
	}
}

// Transpose returns mᵀ as a new CSR built by counting sort: O(nnz),
// and output rows inherit ascending column order from the source row
// sweep, so the sorted-column invariant holds. The GCN training loop
// builds Âᵀ once per run and routes the backward aggregation Âᵀ·G
// through MulDenseInto; each transposed row lists its entries in
// ascending source-row order, so every output element accumulates in
// the same order as a serial scatter over the rows of Â.
func (m *CSR) Transpose() *CSR {
	nnz := m.NNZ()
	out := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	for _, c := range m.ColIdx {
		out.RowPtr[c+1]++
	}
	for r := 0; r < m.Cols; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	next := make([]int, m.Cols)
	copy(next, out.RowPtr[:m.Cols])
	for r := 0; r < m.Rows; r++ {
		start, end := m.RowPtr[r], m.RowPtr[r+1]
		for i := start; i < end; i++ {
			c := m.ColIdx[i]
			p := next[c]
			out.ColIdx[p] = r
			out.Val[p] = m.Val[i]
			next[c]++
		}
	}
	return out
}

// Dense expands the matrix into a dense tensor.Matrix (test helper;
// avoid for paper-scale graphs).
func (m *CSR) Dense() *tensor.Matrix {
	out := tensor.New(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			out.Set(r, c, vals[i])
		}
	}
	return out
}

// Scale returns a copy of m with every value multiplied by s.
func (m *CSR) Scale(s float64) *CSR {
	out := m.clone()
	for i := range out.Val {
		out.Val[i] *= s
	}
	return out
}

func (m *CSR) clone() *CSR {
	out := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return out
}

// SymNormalized returns D^{-1/2}·(m+I)·D^{-1/2}, the symmetric GCN
// normalisation of an adjacency matrix with self-loops, where D is the
// degree matrix of m+I. m must be square.
func (m *CSR) SymNormalized() *CSR {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("sparsemat: SymNormalized needs square matrix, got %dx%d", m.Rows, m.Cols))
	}
	n := m.Rows
	entries := make([]Entry, 0, m.NNZ()+n)
	for r := 0; r < n; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			entries = append(entries, Entry{Row: r, Col: c, Val: vals[i]})
		}
		entries = append(entries, Entry{Row: r, Col: r, Val: 1}) // self loop
	}
	withLoops := NewFromEntries(n, n, entries)
	// Both passes are per-row independent — deg[r] and row r's values
	// are owned by exactly one worker — so the normalisation is
	// byte-identical at any worker count.
	deg := make([]float64, n)
	parallel.For(n, 4096, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			_, vals := withLoops.Row(r)
			for _, v := range vals {
				deg[r] += v
			}
		}
	})
	out := withLoops.clone()
	parallel.For(n, 4096, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			start, end := out.RowPtr[r], out.RowPtr[r+1]
			dr := math.Sqrt(deg[r])
			for i := start; i < end; i++ {
				dc := math.Sqrt(deg[out.ColIdx[i]])
				if dr > 0 && dc > 0 {
					out.Val[i] /= dr * dc
				}
			}
		}
	})
	return out
}

// String renders a compact description.
func (m *CSR) String() string {
	return fmt.Sprintf("sparsemat.CSR(%dx%d, nnz=%d)", m.Rows, m.Cols, m.NNZ())
}
