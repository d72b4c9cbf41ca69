// Package tensor provides the dense float64 matrix type and the small
// set of linear-algebra operations GoPIM needs: matrix products,
// element-wise operations, row/column reductions, and random initialisation.
//
// The package is deliberately minimal — it backs the GCN training
// engine and the MLP time predictor, both of which only require dense
// GEMM-style kernels. Sparse adjacency matrices live in package
// sparsemat.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gopim/internal/parallel"
)

// Matrix is a dense, row-major float64 matrix.
//
// The zero value is an empty (0×0) matrix. Use New, NewFromRows, or the
// random constructors for anything else.
type Matrix struct {
	Rows, Cols int
	// Data holds the entries in row-major order: element (r, c) lives
	// at Data[r*Cols+c]. Its length is always Rows*Cols.
	Data []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewFromRows builds a matrix from a slice of equally sized rows.
func NewFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for r, row := range rows {
		if len(row) != cols {
			panic(fmt.Sprintf("tensor: ragged rows: row %d has %d cols, want %d", r, len(row), cols))
		}
		copy(m.Data[r*cols:(r+1)*cols], row)
	}
	return m
}

// NewRandom returns a rows×cols matrix with entries drawn uniformly
// from [-scale, scale] using rng.
func NewRandom(rng *rand.Rand, rows, cols int, scale float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		// The conversion stops arm64 from fusing the generator's
		// inlined 2⁻⁶³ scaling into the doubling (exact either way,
		// but the package is kept free of fused multiply-adds).
		m.Data[i] = (float64(rng.Float64())*2 - 1) * scale
	}
	return m
}

// NewGlorot returns a rows×cols matrix initialised with the Glorot
// (Xavier) uniform scheme, the standard initialisation for GCN and MLP
// weight matrices.
func NewGlorot(rng *rand.Rand, rows, cols int) *Matrix {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	return NewRandom(rng, rows, cols, limit)
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 {
	m.check(r, c)
	return m.Data[r*m.Cols+c]
}

// Set stores v at element (r, c).
func (m *Matrix) Set(r, c int, v float64) {
	m.check(r, c)
	m.Data[r*m.Cols+c] = v
}

// Add accumulates v into element (r, c).
func (m *Matrix) Add(r, c int, v float64) {
	m.check(r, c)
	m.Data[r*m.Cols+c] += v
}

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", r, c, m.Rows, m.Cols))
	}
}

// Row returns the r-th row as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Row(r int) []float64 {
	if r < 0 || r >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", r, m.Rows))
	}
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// SetRow copies v into row r. len(v) must equal Cols.
func (m *Matrix) SetRow(r int, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: SetRow length %d != cols %d", len(v), m.Cols))
	}
	copy(m.Row(r), v)
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom overwrites m's contents with src's. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every entry to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// transposeTile is the edge of the square tiles TransposeInto copies
// one at a time: a 16×16 float64 tile of src and of dst (2 KiB each)
// stays in L1, so neither side is streamed with a cache-missing stride.
const transposeTile = 16

// TransposeInto computes dst = srcᵀ, reusing dst's storage. dst must
// be src.Cols × src.Rows and must not alias src. It runs serially
// regardless of size: transposes on the training hot path sit inside
// already-parallel sections, and a copy is exact, so neither the tile
// order nor the worker count can change a bit of the result.
func TransposeInto(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, src.Cols, src.Rows))
	}
	if aliases(dst, src) {
		panic("tensor: TransposeInto dst must not alias src")
	}
	rows, cols := src.Rows, src.Cols
	if rows == 1 || cols == 1 {
		// A vector and its transpose share one row-major layout.
		copy(dst.Data, src.Data)
		return
	}
	for r0 := 0; r0 < rows; r0 += transposeTile {
		r1 := min(r0+transposeTile, rows)
		for c0 := 0; c0 < cols; c0 += transposeTile {
			c1 := min(c0+transposeTile, cols)
			r := r0
			// Four source rows per pass, so each dst row gets four
			// contiguous elements per store group.
			for ; r+4 <= r1; r += 4 {
				s0 := src.Data[r*cols+c0 : r*cols+c1]
				s1 := src.Data[(r+1)*cols+c0 : (r+1)*cols+c1]
				s2 := src.Data[(r+2)*cols+c0 : (r+2)*cols+c1]
				s3 := src.Data[(r+3)*cols+c0 : (r+3)*cols+c1]
				for c := range s0 {
					d := dst.Data[(c0+c)*rows+r : (c0+c)*rows+r+4]
					d[0], d[1], d[2], d[3] = s0[c], s1[c], s2[c], s3[c]
				}
			}
			for ; r < r1; r++ {
				for c, v := range src.Data[r*cols+c0 : r*cols+c1] {
					dst.Data[(c0+c)*rows+r] = v
				}
			}
		}
	}
}

// MatMul returns a*b. Panics if the inner dimensions disagree.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// aliases reports whether two matrices share storage. All Matrix
// values own their whole Data slice (every constructor allocates with
// make), so shared storage always means the slices start at the same
// element.
func aliases(x, y *Matrix) bool {
	return len(x.Data) > 0 && len(y.Data) > 0 && &x.Data[0] == &y.Data[0]
}

// matmulParallelMinFLOPs is the multiply-add count below which
// MatMulInto stays on the serial kernel; the MLP predictor issues
// thousands of tiny batch-16 GEMMs where fork/join overhead would
// swamp the arithmetic.
const matmulParallelMinFLOPs = 1 << 16

// GEMM tile sizes (elements). The kernel takes gemmBlockI output rows
// at a time and walks the inner dimension in gemmBlockK-long blocks;
// for each (row tile, k-block) it lists every row's nonzero a entries
// once, then sweeps b in gemmPanelCols-wide panels, panel outer and
// rows inner, so all rows of the tile reuse one 128×32 panel of b
// (32 KiB, L1-resident). Tiling only reorders the traversal: for every
// output element the k-summation order is unchanged.
const (
	gemmBlockI    = 32
	gemmBlockK    = 128
	gemmPanelCols = 32
)

// MatMulInto computes dst = a*b, reusing dst's storage.
// dst must be a.Rows × b.Cols and must not alias a or b (checked —
// aliased storage would silently corrupt the accumulation).
//
// Every output element is accumulated k-ascending from +0, entries
// with a == 0 (either sign) skipped and NaN kept, each product and
// each add rounded on its own, so the result is byte-identical to the
// naive triple loop at any tile size and any worker count.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("tensor: MatMulInto dst must not alias a or b")
	}
	gemm(dst, a, b, false)
}

// MatMulTNInto computes dst = aᵀ·b without materialising the
// transpose, reusing dst's storage. dst must be a.Cols × b.Cols and
// must not alias a or b. It is byte-identical to
// TransposeInto(at, a); MatMulInto(dst, at, b): only the gather of
// aᵀ's rows (columns of a) is fused into the product.
//
// Training backward passes use it for weight gradients (dW = Xᵀ·Δ),
// where materialising Xᵀ once per mini-batch cost more than the
// product itself on thin matrices.
func MatMulTNInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTN inner dims %d != %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTNInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("tensor: MatMulTNInto dst must not alias a or b")
	}
	gemm(dst, a, b, true)
}

// gemm computes dst = op(a)·b, where op(a) is a, or aᵀ when trans is
// set. Large products run in parallel over blocks of whole row tiles:
// each worker owns its dst rows and accumulates them exactly as the
// serial kernel does, so the result is identical at any worker count.
func gemm(dst, a, b *Matrix, trans bool) {
	if len(b.Data) > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: GEMM operand %dx%d exceeds the kernel's int32 offsets", b.Rows, b.Cols))
	}
	rows, flopsPerRow := dst.Rows, b.Rows*b.Cols
	if rows*flopsPerRow < matmulParallelMinFLOPs {
		gemmRows(dst, a, b, trans, 0, rows)
		return
	}
	// At least one row tile per block: a smaller block would never form
	// the tile whose rows share each b panel.
	grain := max(gemmBlockI, matmulParallelMinFLOPs/(4*(flopsPerRow+1))+1)
	// One-worker runs take the serial path without building the
	// escaping closure For needs — the training hot loop stays
	// allocation-free on single-core hosts.
	if parallel.Serial(rows, grain) {
		gemmRows(dst, a, b, trans, 0, rows)
		return
	}
	parallel.For(rows, grain, func(lo, hi int) {
		gemmRows(dst, a, b, trans, lo, hi)
	})
}

// gemmLists holds one row tile's nonzero a entries for one k-block:
// row r's list is vals[r·gemmBlockK:][:n[r]] with the matching b-row
// offsets k·b.Cols in offs, k-ascending. int32 offsets keep it at
// 48 KiB.
type gemmLists struct {
	vals [gemmBlockI * gemmBlockK]float64
	offs [gemmBlockI * gemmBlockK]int32
	n    [gemmBlockI]int
}

// gemmListPool recycles list scratch across GEMM calls. A fresh one per
// call would be zeroed first, which costs more than the whole product
// on the MLP's small shapes (16×1·1×256 takes about 0.9 µs with a
// recycled one and 2.4 µs with a cleared one); every list entry is
// written before it is read, so a recycled one needs no clearing.
var gemmListPool = sync.Pool{New: func() any { return new(gemmLists) }}

// nonzero returns 1 unless v is ±0 (NaN counts as nonzero), without a
// branch: the list builders store every entry and advance by this.
func nonzero(v float64) int {
	x := math.Float64bits(v) << 1
	return int((x | -x) >> 63)
}

// gatherRows lists rows [i0, i1) of a over k ∈ [k0, k1).
func (l *gemmLists) gatherRows(a *Matrix, i0, i1, k0, k1, cols int) {
	for r := range i1 - i0 {
		vals, offs := l.vals[r*gemmBlockK:][:k1-k0], l.offs[r*gemmBlockK:][:k1-k0]
		n := 0
		for k, v := range a.Data[(i0+r)*a.Cols+k0 : (i0+r)*a.Cols+k1] {
			vals[n], offs[n] = v, int32((k0+k)*cols)
			n += nonzero(v)
		}
		l.n[r] = n
	}
}

// gatherColumns lists columns [i0, i1) of a (rows of aᵀ) over
// k ∈ [k0, k1), reading each a row's run across the tile contiguously.
func (l *gemmLists) gatherColumns(a *Matrix, i0, i1, k0, k1, cols int) {
	clear(l.n[:i1-i0])
	for k := k0; k < k1; k++ {
		off := int32(k * cols)
		for r, v := range a.Data[k*a.Cols+i0 : k*a.Cols+i1] {
			p := r*gemmBlockK + l.n[r]
			l.vals[p], l.offs[p] = v, off
			l.n[r] += nonzero(v)
		}
	}
}

// denseQuad reports whether tile rows r..r+3 (of rows) all have no ±0
// entry in a k-block of length kn. Their lists then hold every k of
// the block in order, so they share one offset list, and the quad
// kernel adds exactly the products the four single-row calls would.
func (l *gemmLists) denseQuad(r, rows, kn int) bool {
	return r+4 <= rows && l.n[r] == kn && l.n[r+1] == kn && l.n[r+2] == kn && l.n[r+3] == kn
}

// gemmRows computes dst rows [lo, hi) of op(a)·b. Within a row tile,
// each run of four rows with no ±0 in the k-block runs on the quad
// kernel, which shares each load of b across the four; every other
// row runs on its own.
func gemmRows(dst, a, b *Matrix, trans bool, lo, hi int) {
	cols, inner := b.Cols, b.Rows
	if cols == 1 {
		gemmColumn(dst, a, b, trans, lo, hi)
		return
	}
	clear(dst.Data[lo*cols : hi*cols])
	l := gemmListPool.Get().(*gemmLists)
	defer gemmListPool.Put(l)
	for i0 := lo; i0 < hi; i0 += gemmBlockI {
		i1 := min(i0+gemmBlockI, hi)
		for k0 := 0; k0 < inner; k0 += gemmBlockK {
			k1 := min(k0+gemmBlockK, inner)
			if trans {
				l.gatherColumns(a, i0, i1, k0, k1, cols)
			} else {
				l.gatherRows(a, i0, i1, k0, k1, cols)
			}
			for j0 := 0; j0 < cols; j0 += gemmPanelCols {
				j1 := min(j0+gemmPanelCols, cols)
				for r := 0; r < i1-i0; {
					row := (i0 + r) * cols
					if j1-j0 == gemmPanelCols && l.denseQuad(r, i1-i0, k1-k0) {
						gemmQuad(l.vals[r*gemmBlockK:], gemmBlockK, l.offs[r*gemmBlockK:][:k1-k0],
							b.Data[j0:], dst.Data[row+j0:], cols)
						r += 4
						continue
					}
					if n := l.n[r]; n > 0 {
						gemmPanel(l.vals[r*gemmBlockK:][:n], l.offs[r*gemmBlockK:][:n],
							b.Data[j0:], dst.Data[row+j0:row+j1])
					}
					r++
				}
			}
		}
	}
}

// SparseRowInto computes one row of a sparse-dense product on the GEMM
// panel kernel: c = Σₑ vals[e]·b[offs[e]:][:len(c)], each element
// accumulated from +0 over the entries in list order, each product and
// each add rounded on its own. Unlike the GEMM, no entry is skipped: a
// stored zero still adds its (signed-zero or NaN) product. b holds the
// dense operand's rows back to back and offs[e] is the start of entry
// e's row in it, so every offs[e]+len(c) must be at most len(b), and
// len(offs) ≥ len(vals).
func SparseRowInto(c, vals []float64, offs []int32, b []float64) {
	if len(b) > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: SparseRowInto operand of %d elements exceeds the kernel's int32 offsets", len(b)))
	}
	offs = offs[:len(vals)]
	// The assembly kernel does not bounds-check, so check here.
	for _, off := range offs {
		if off < 0 || int(off) > len(b)-len(c) {
			panic(fmt.Sprintf("tensor: SparseRowInto offset %d out of range for %d-wide rows in %d elements", off, len(c), len(b)))
		}
	}
	clear(c)
	// The kernel walks c in 32-column register panels itself, each
	// panel running the whole list.
	gemmPanel(vals, offs, b, c)
}

// gemmColumn is gemmRows for a single b column, where a 32-wide panel
// would be mostly tail. The plain product takes a dot product per row;
// the transposed one walks k outermost, adding column k of aᵀ (a's
// contiguous row k) times b[k] into the dst segment where it is
// nonzero, which is the same per-element sequence.
func gemmColumn(dst, a, b *Matrix, trans bool, lo, hi int) {
	if !trans {
		for i := lo; i < hi; i++ {
			dst.Data[i] = pairedDot(a.Row(i), b.Data)
		}
		return
	}
	y := dst.Data[lo:hi]
	clear(y)
	for k, s := range b.Data {
		maskedAxpy(s, a.Data[k*a.Cols+lo:k*a.Cols+hi], y)
	}
}

// pairedDot returns Σₖ a[k]·b[k] accumulated exactly as the GEMM
// kernel accumulates one output element: k-ascending, zero entries of
// a skipped without an FP op, each product and add rounded on its own.
// Consecutive nonzero k-steps are paired only to shorten the loop; two
// separately rounded adds give the same bits in one pass or two.
func pairedDot(a, b []float64) float64 {
	b = b[:len(a)]
	var acc float64
	k := 0
	for k < len(a) {
		av0 := a[k]
		if av0 == 0 {
			k++
			continue
		}
		k2 := k + 1
		for k2 < len(a) && a[k2] == 0 {
			k2++
		}
		if k2 < len(a) {
			v := acc + float64(av0*b[k])
			acc = v + float64(a[k2]*b[k2])
			k = k2 + 1
		} else {
			acc += float64(av0 * b[k])
			k = len(a)
		}
	}
	return acc
}

// SubInPlace computes m -= other element-wise.
func (m *Matrix) SubInPlace(other *Matrix) {
	m.sameShape(other, "SubInPlace")
	for i, v := range other.Data {
		m.Data[i] -= v
	}
}

// MulInPlace computes m *= other element-wise (Hadamard product).
func (m *Matrix) MulInPlace(other *Matrix) {
	m.sameShape(other, "MulInPlace")
	for i, v := range other.Data {
		m.Data[i] *= v
	}
}

// ScaleInPlace multiplies every entry by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

func (m *Matrix) sameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

// AddRowVector adds v to every row of m in place. len(v) must be Cols.
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += v[c]
		}
	}
}

// ColSumsInto accumulates the per-column sums of m into sums,
// zeroing it first. len(sums) must equal Cols.
func (m *Matrix) ColSumsInto(sums []float64) {
	if len(sums) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSumsInto length %d != cols %d", len(sums), m.Cols))
	}
	for c := range sums {
		sums[c] = 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			sums[c] += v
		}
	}
}

// MaxAbs returns the largest absolute entry, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether m and other have identical shape and entries
// within tolerance eps.
func (m *Matrix) Equal(other *Matrix, eps float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > eps {
			return false
		}
	}
	return true
}

// String renders a compact description, not the full contents.
func (m *Matrix) String() string {
	return fmt.Sprintf("tensor.Matrix(%dx%d)", m.Rows, m.Cols)
}

// ArgMaxRow returns the column index of the largest entry in row r.
func (m *Matrix) ArgMaxRow(r int) int {
	row := m.Row(r)
	best, bestV := 0, math.Inf(-1)
	for c, v := range row {
		if v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// SoftmaxRowsInto writes the row-wise softmax of m into out, reusing
// out's storage. out must match m's shape and not alias it.
func (m *Matrix) SoftmaxRowsInto(out *Matrix) {
	m.sameShape(out, "SoftmaxRowsInto")
	if aliases(out, m) {
		panic("tensor: SoftmaxRowsInto out must not alias m")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		orow := out.Row(r)
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for c, v := range row {
			e := math.Exp(v - max)
			orow[c] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		for c := range orow {
			orow[c] /= sum
		}
	}
}
