package sparsemat

import (
	"fmt"

	"gopim/internal/parallel"
	"gopim/internal/tensor"
)

// This file holds the alternative SpMM execution strategies behind the
// kernel autotuner (internal/spmm). Every strategy computes the same
// product as MulDenseInto and is bitwise-equal to it at any worker
// count, because they all reuse one scalar fold per output element:
// the paired-term, ascending-column accumulation of mulDenseRows.
// What varies is only how the (row, dense-column) iteration space is
// cut into worker-owned pieces — each output element is always wholly
// owned by exactly one worker, so no cross-worker reduction (and no
// floating-point reassociation) ever happens.
//
//   - Blocked: row-parallel outer loop, column-tiled inner loop. The
//     dense operand is walked in tiles of blockedTileCols columns so a
//     high-degree row's gather re-reads neighbour rows from cache
//     instead of streaming the full width per nonzero pair.
//   - Bucketed: rows are packed into chunks of approximately equal
//     NNZ (computed from RowPtr alone, so chunk boundaries are a pure
//     function of the matrix), and the worker pool claims chunks. On
//     power-law graphs this keeps one hub row from serialising the
//     tail of a block-partitioned sweep.
//   - Edge: hub rows (degree ≥ hubRowMinNNZ) are parallelised along
//     the dense-column axis — the edge-level work of one hub row is
//     spread across workers by giving each a column slice and running
//     the full serial fold inside it. The "fixed-order reduction" of
//     per-worker partials is the degenerate one: each output element
//     has a single owner, so its accumulation order is exactly the
//     serial order. Non-hub rows take the row-parallel path.

// blockedTileCols is the dense-column tile width of the blocked
// strategy: 128 float64s = 1 KiB output segment per row, matching the
// j-tile of tensor's blocked GEMM.
const blockedTileCols = 128

// bucketTargetFLOPs is the multiply-add budget per bucketed chunk;
// chunks are cut so each holds roughly this much work regardless of
// how degrees are distributed across rows.
const bucketTargetFLOPs = spmmParallelMinFLOPs / 4

// hubRowMinNNZ is the stored-entry count at which the edge strategy
// switches a row from row-parallel to column-parallel execution.
const hubRowMinNNZ = 256

// Stats are the cheap CSR shape features the strategy selector reads:
// O(rows) to compute, no access to values.
type Stats struct {
	Rows, Cols int
	NNZ        int
	// MaxRowNNZ is the densest row's stored-entry count.
	MaxRowNNZ int
	// AvgRowNNZ is NNZ/Rows (0 for an empty matrix).
	AvgRowNNZ float64
	// Skew is MaxRowNNZ/AvgRowNNZ — 1 for perfectly regular graphs,
	// large for power-law graphs with hubs.
	Skew float64
}

// Stats computes the selector features for m.
func (m *CSR) Stats() Stats {
	s := Stats{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ()}
	for r := 0; r < m.Rows; r++ {
		if n := m.RowNNZ(r); n > s.MaxRowNNZ {
			s.MaxRowNNZ = n
		}
	}
	if m.Rows > 0 {
		s.AvgRowNNZ = float64(s.NNZ) / float64(m.Rows)
	}
	if s.AvgRowNNZ > 0 {
		s.Skew = float64(s.MaxRowNNZ) / s.AvgRowNNZ
	}
	return s
}

// checkMulDense validates the shared MulDense*Into contract with the
// same panic strings as MulDenseInto.
func (m *CSR) checkMulDense(dst, d *tensor.Matrix) {
	if m.Cols != d.Rows {
		panic(fmt.Sprintf("sparsemat: MulDense inner dims %d != %d", m.Cols, d.Rows))
	}
	if dst.Rows != m.Rows || dst.Cols != d.Cols {
		panic(fmt.Sprintf("sparsemat: MulDenseInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, d.Cols))
	}
	if len(dst.Data) > 0 && len(d.Data) > 0 && &dst.Data[0] == &d.Data[0] {
		panic("sparsemat: MulDenseInto dst must not alias d")
	}
}

// MulDenseIntoBlocked computes dst = m · d with the column-tiled
// strategy: rows are block-partitioned exactly like MulDenseInto, but
// inside a row the dense width is walked one blockedTileCols-wide tile
// at a time. Per output element the accumulation is the same paired,
// ascending-column fold, so the result is bitwise-equal to
// MulDenseInto at any worker count.
func (m *CSR) MulDenseIntoBlocked(dst, d *tensor.Matrix) {
	m.checkMulDense(dst, d)
	if m.NNZ()*d.Cols < spmmParallelMinFLOPs {
		m.mulDenseRowsBlocked(dst, d, 0, m.Rows)
		return
	}
	avgFlopsPerRow := m.NNZ()*d.Cols/m.Rows + 1
	grain := spmmParallelMinFLOPs / (4 * avgFlopsPerRow)
	if parallel.Serial(m.Rows, grain+1) {
		m.mulDenseRowsBlocked(dst, d, 0, m.Rows)
		return
	}
	parallel.For(m.Rows, grain+1, func(lo, hi int) {
		m.mulDenseRowsBlocked(dst, d, lo, hi)
	})
}

// mulDenseRowsBlocked computes dst rows [lo, hi) tile-by-tile.
func (m *CSR) mulDenseRowsBlocked(dst, d *tensor.Matrix, lo, hi int) {
	for r := lo; r < hi; r++ {
		for jlo := 0; jlo < d.Cols; jlo += blockedTileCols {
			jhi := jlo + blockedTileCols
			if jhi > d.Cols {
				jhi = d.Cols
			}
			m.mulDenseRowCols(dst, d, r, jlo, jhi)
		}
	}
}

// MulDenseIntoBucketed computes dst = m · d with degree-bucketed row
// partitioning: rows are packed into chunks of roughly equal stored
// FLOPs (boundaries derived from RowPtr alone), and workers claim
// whole chunks. Each row is still accumulated by the serial fold, so
// the result is bitwise-equal to MulDenseInto at any worker count.
func (m *CSR) MulDenseIntoBucketed(dst, d *tensor.Matrix) {
	m.checkMulDense(dst, d)
	if m.NNZ()*d.Cols < spmmParallelMinFLOPs {
		m.mulDenseRows(dst, d, 0, m.Rows)
		return
	}
	bounds := m.bucketBounds(d.Cols)
	if parallel.Serial(len(bounds)-1, 1) {
		m.mulDenseRows(dst, d, 0, m.Rows)
		return
	}
	parallel.For(len(bounds)-1, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			m.mulDenseRows(dst, d, bounds[c], bounds[c+1])
		}
	})
}

// bucketBounds cuts [0, Rows) into chunks of ≈bucketTargetFLOPs
// multiply-adds each: bounds[i] is chunk i's first row. A pure
// function of (RowPtr, denseCols) — never of the worker count — so
// the chunking itself is deterministic, though correctness does not
// depend on that (rows are owned exclusively either way).
func (m *CSR) bucketBounds(denseCols int) []int {
	if denseCols < 1 {
		denseCols = 1
	}
	targetNNZ := bucketTargetFLOPs / denseCols
	if targetNNZ < 1 {
		targetNNZ = 1
	}
	bounds := []int{0}
	acc := 0
	for r := 0; r < m.Rows; r++ {
		acc += m.RowNNZ(r)
		if acc >= targetNNZ && r+1 < m.Rows {
			bounds = append(bounds, r+1)
			acc = 0
		}
	}
	return append(bounds, m.Rows)
}

// MulDenseIntoEdge computes dst = m · d with the edge-parallel hub
// strategy: rows with at least hubRowMinNNZ stored entries are
// parallelised along the dense-column axis (each worker owns a column
// slice of the hub row's output and runs the full ascending-column
// fold inside it), while the remaining rows take the row-parallel
// path. Every output element is produced by exactly one worker with
// the serial accumulation order, so the result is bitwise-equal to
// MulDenseInto at any worker count.
func (m *CSR) MulDenseIntoEdge(dst, d *tensor.Matrix) {
	m.checkMulDense(dst, d)
	if m.NNZ()*d.Cols < spmmParallelMinFLOPs {
		m.mulDenseRows(dst, d, 0, m.Rows)
		return
	}
	hubs := make([]int, 0, 8)
	for r := 0; r < m.Rows; r++ {
		if m.RowNNZ(r) >= hubRowMinNNZ {
			hubs = append(hubs, r)
		}
	}
	if len(hubs) == 0 {
		m.MulDenseInto(dst, d)
		return
	}
	hubSet := make(map[int]bool, len(hubs))
	for _, r := range hubs {
		hubSet[r] = true
	}
	// Non-hub rows: row-parallel, skipping hubs inside the block.
	avgFlopsPerRow := m.NNZ()*d.Cols/m.Rows + 1
	grain := spmmParallelMinFLOPs/(4*avgFlopsPerRow) + 1
	if parallel.Serial(m.Rows, grain) {
		for r := 0; r < m.Rows; r++ {
			if !hubSet[r] {
				m.mulDenseRowCols(dst, d, r, 0, d.Cols)
			}
		}
	} else {
		parallel.For(m.Rows, grain, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				if !hubSet[r] {
					m.mulDenseRowCols(dst, d, r, 0, d.Cols)
				}
			}
		})
	}
	// Hub rows: one at a time, workers split the dense width. The
	// column grain keeps slices cache-line aligned (8 float64s).
	for _, r := range hubs {
		r := r
		if parallel.Serial(d.Cols, blockedTileCols) {
			m.mulDenseRowCols(dst, d, r, 0, d.Cols)
			continue
		}
		parallel.For(d.Cols, blockedTileCols, func(jlo, jhi int) {
			m.mulDenseRowCols(dst, d, r, jlo, jhi)
		})
	}
}

// mulDenseRowCols computes dst[r][jlo:jhi] of m·d: the mulDenseRows
// fold restricted to a column slice. Pairing is formed over the row's
// full nonzero list (independent of the slice), and within the slice
// each element accumulates its terms in exactly the serial order —
// this is the single scalar kernel every strategy shares.
func (m *CSR) mulDenseRowCols(dst, d *tensor.Matrix, r, jlo, jhi int) {
	cols, vals := m.Row(r)
	orow := dst.Row(r)[jlo:jhi]
	for j := range orow {
		orow[j] = 0
	}
	i := 0
	for ; i+1 < len(cols); i += 2 {
		v0, v1 := vals[i], vals[i+1]
		d0 := d.Row(cols[i])[jlo:jhi]
		d1 := d.Row(cols[i+1])[jlo:jhi]
		d1 = d1[:len(d0)]
		ob := orow[:len(d0)]
		for j, dv := range d0 {
			t := ob[j] + float64(v0*dv)
			ob[j] = t + float64(v1*d1[j])
		}
	}
	if i < len(cols) {
		v := vals[i]
		drow := d.Row(cols[i])[jlo:jhi]
		ob := orow[:len(drow)]
		for j, dv := range drow {
			ob[j] += float64(v * dv)
		}
	}
}
