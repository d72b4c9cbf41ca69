// Package tensor provides the dense float64 matrix type and the small
// set of linear-algebra operations GoPIM needs: matrix products,
// element-wise maps, row/column reductions, and random initialisation.
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
		m.Data[i] = (rng.Float64()*2 - 1) * scale
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

// transposeParallelMin is the element count below which T stays on the
// serial gather loop; tiny transposes are dominated by goroutine
// handoff, not copying.
const transposeParallelMin = 1 << 14

// T returns the transpose of m as a new matrix. Large matrices gather
// in parallel, one block of output rows per worker; each output row is
// written by exactly one worker, so the result is identical at any
// worker count.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	if m.Rows*m.Cols < transposeParallelMin {
		for r := 0; r < m.Rows; r++ {
			row := m.Row(r)
			for c, v := range row {
				out.Data[c*out.Cols+r] = v
			}
		}
		return out
	}
	grain := transposeParallelMin / (m.Rows + 1)
	parallel.For(m.Cols, grain+1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			orow := out.Row(c)
			for r := 0; r < m.Rows; r++ {
				orow[r] = m.Data[r*m.Cols+c]
			}
		}
	})
	return out
}

// TransposeInto computes dst = srcᵀ, reusing dst's storage. dst must
// be src.Cols × src.Rows and must not alias src. The gather order is
// the serial one regardless of size: transposes on the training hot
// path sit inside already-parallel sections, and a copy is exact, so
// there is no accumulation order to protect.
func TransposeInto(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, src.Cols, src.Rows))
	}
	if aliases(dst, src) {
		panic("tensor: TransposeInto dst must not alias src")
	}
	for r := 0; r < src.Rows; r++ {
		row := src.Row(r)
		for c, v := range row {
			dst.Data[c*dst.Cols+r] = v
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

// GEMM cache-blocking tile sizes (elements). The kernel processes
// gemmBlockI output rows at a time against kc×jc blocks of b: a
// 128×128 float64 block of b (128 KiB, L2-resident) is reused across
// the whole row tile instead of b being re-streamed from memory once
// per output row. Tiling only reorders the i/j traversal; for every
// output element the k-summation order is unchanged, which keeps
// blocked results byte-identical to the unblocked kernel.
const (
	gemmBlockI = 32
	gemmBlockK = 128
	gemmBlockJ = 128
)

// MatMulInto computes dst = a*b, reusing dst's storage.
// dst must be a.Rows × b.Cols and must not alias a or b (checked —
// aliased storage would silently corrupt the accumulation).
//
// Large products run row-blocked in parallel: each worker owns a
// contiguous block of dst rows and accumulates it in the same ikj
// order as the serial kernel, so the result is byte-identical at any
// worker count. Within a row the kernel is cache-blocked over k and j
// (see gemmBlockK/gemmBlockJ); per output element the accumulation
// order is still k-ascending with the same zero-skip, so blocking
// never changes a single output bit.
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
	flopsPerRow := a.Cols * b.Cols
	if a.Rows*flopsPerRow < matmulParallelMinFLOPs {
		matMulBlock(dst, a, b, 0, a.Rows)
		return
	}
	grain := matmulParallelMinFLOPs / (4 * (flopsPerRow + 1))
	// One-worker runs take the serial path without building the
	// escaping closure For needs — the training hot loop stays
	// allocation-free on single-core hosts.
	if parallel.Serial(a.Rows, grain+1) {
		matMulBlock(dst, a, b, 0, a.Rows)
		return
	}
	parallel.For(a.Rows, grain+1, func(lo, hi int) {
		matMulBlock(dst, a, b, lo, hi)
	})
}

// matMulBlock computes dst rows [lo, hi) = a[lo:hi]·b with i/k/j
// tiling. Accumulation per output element stays k-ascending with the
// historic zero-skip, so the result is byte-identical to the old
// unblocked ikj loop at any tile size.
func matMulBlock(dst, a, b *Matrix, lo, hi int) {
	cols := b.Cols
	inner := a.Cols
	if cols == 1 {
		// Matrix·vector: b's single column is contiguous, so each output
		// element is a straight dot product. The tile machinery would
		// re-slice b once per k-step for a single element; the dot loop
		// below runs the identical zero-skip/paired accumulation sequence
		// in registers and stores each result once.
		for i := lo; i < hi; i++ {
			dst.Data[i] = pairedDot(a.Row(i), b.Data)
		}
		return
	}
	for i := lo; i < hi; i++ {
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = 0
		}
	}
	for i0 := lo; i0 < hi; i0 += gemmBlockI {
		i1 := i0 + gemmBlockI
		if i1 > hi {
			i1 = hi
		}
		for k0 := 0; k0 < inner; k0 += gemmBlockK {
			k1 := k0 + gemmBlockK
			if k1 > inner {
				k1 = inner
			}
			for j0 := 0; j0 < cols; j0 += gemmBlockJ {
				j1 := j0 + gemmBlockJ
				if j1 > cols {
					j1 = cols
				}
				for i := i0; i < i1; i++ {
					arow := a.Row(i)
					ot := dst.Data[i*cols+j0 : i*cols+j1]
					// Pair consecutive nonzero k-steps: each output
					// element still receives its updates one k at a
					// time in ascending order (two separate rounded
					// add/mul steps per pass), so the bits match the
					// one-k-per-pass loop while ot is loaded and
					// stored half as often.
					k := k0
					for k < k1 {
						av0 := arow[k]
						if av0 == 0 {
							k++
							continue
						}
						k2 := k + 1
						for k2 < k1 && arow[k2] == 0 {
							k2++
						}
						bt0 := b.Data[k*cols+j0 : k*cols+j1]
						if k2 < k1 {
							axpy2(av0, arow[k2], bt0, b.Data[k2*cols+j0:k2*cols+j1], ot)
							k = k2 + 1
						} else {
							axpy1(av0, bt0, ot)
							k = k1
						}
					}
				}
			}
		}
	}
}

// pairedDot returns Σₖ a[k]·b[k] accumulated exactly as the blocked
// GEMM kernel accumulates one output element: k-ascending, zero entries
// of a skipped without an FP op, and consecutive nonzero k-steps paired
// into two separately rounded add/mul steps. Any kernel built on it is
// byte-identical to matMulBlock for the same operand values.
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
			v := acc + av0*b[k]
			acc = v + a[k2]*b[k2]
			k = k2 + 1
		} else {
			acc += av0 * b[k]
			k = len(a)
		}
	}
	return acc
}

// pairedDotStride is pairedDot with a strided left operand: it reads
// a[k*stride] for k in [0, n) — column i of a row-major matrix when
// called with a = Data[i:] — against a contiguous b. The accumulation
// sequence is identical to pairedDot on the gathered column.
func pairedDotStride(a []float64, stride, n int, b []float64) float64 {
	b = b[:n]
	var acc float64
	k := 0
	for k < n {
		av0 := a[k*stride]
		if av0 == 0 {
			k++
			continue
		}
		k2 := k + 1
		for k2 < n && a[k2*stride] == 0 {
			k2++
		}
		if k2 < n {
			v := acc + av0*b[k]
			acc = v + a[k2*stride]*b[k2]
			k = k2 + 1
		} else {
			acc += av0 * b[k]
			k = n
		}
	}
	return acc
}

// MatMulTNInto computes dst = aᵀ·b without materialising the
// transpose, reusing dst's storage. dst must be a.Cols × b.Cols and
// must not alias a or b. It is byte-identical to
// TransposeInto(at, a); MatMulInto(dst, at, b): per output element the
// accumulation runs k-ascending over a's rows with the same zero-skip
// and pairing as the plain kernel, only the gather of aᵀ's row (a
// strided column read of a) is fused into the product.
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
	flopsPerRow := a.Rows * b.Cols
	if dst.Rows*flopsPerRow < matmulParallelMinFLOPs {
		matMulTNBlock(dst, a, b, 0, dst.Rows)
		return
	}
	grain := matmulParallelMinFLOPs / (4 * (flopsPerRow + 1))
	if parallel.Serial(dst.Rows, grain+1) {
		matMulTNBlock(dst, a, b, 0, dst.Rows)
		return
	}
	parallel.For(dst.Rows, grain+1, func(lo, hi int) {
		matMulTNBlock(dst, a, b, lo, hi)
	})
}

// matMulTNBlock computes dst rows [lo, hi) of aᵀ·b. Row i of dst reads
// column i of a (stride a.Cols); the k/j tiling mirrors matMulBlock and
// per output element the k order, zero-skip and pairing are unchanged.
func matMulTNBlock(dst, a, b *Matrix, lo, hi int) {
	cols := b.Cols
	inner := a.Rows
	ac := a.Cols
	if cols == 1 {
		for i := lo; i < hi; i++ {
			dst.Data[i] = pairedDotStride(a.Data[i:], ac, inner, b.Data)
		}
		return
	}
	for i := lo; i < hi; i++ {
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = 0
		}
	}
	for k0 := 0; k0 < inner; k0 += gemmBlockK {
		k1 := k0 + gemmBlockK
		if k1 > inner {
			k1 = inner
		}
		for j0 := 0; j0 < cols; j0 += gemmBlockJ {
			j1 := j0 + gemmBlockJ
			if j1 > cols {
				j1 = cols
			}
			for i := lo; i < hi; i++ {
				acol := a.Data[i:]
				ot := dst.Data[i*cols+j0 : i*cols+j1]
				k := k0
				for k < k1 {
					av0 := acol[k*ac]
					if av0 == 0 {
						k++
						continue
					}
					k2 := k + 1
					for k2 < k1 && acol[k2*ac] == 0 {
						k2++
					}
					bt0 := b.Data[k*cols+j0 : k*cols+j1]
					if k2 < k1 {
						axpy2(av0, acol[k2*ac], bt0, b.Data[k2*cols+j0:k2*cols+j1], ot)
						k = k2 + 1
					} else {
						axpy1(av0, bt0, ot)
						k = k1
					}
				}
			}
		}
	}
}

// MatMulNTInto computes dst = a·bᵀ without materialising the
// transpose, reusing dst's storage. dst must be a.Rows × b.Rows and
// must not alias a or b. It is byte-identical to
// TransposeInto(bt, b); MatMulInto(dst, a, bt): output element (i, j)
// is the dot product of a's row i and b's row j — both contiguous —
// accumulated k-ascending with the plain kernel's zero-skip (on a's
// entries) and pairing.
//
// Training backward passes use it to push gradients through a layer
// (dX = Δ·Wᵀ) without re-transposing the weights every mini-batch.
func MatMulNTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulNT inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulNTInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("tensor: MatMulNTInto dst must not alias a or b")
	}
	flopsPerRow := a.Cols * b.Rows
	if a.Rows*flopsPerRow < matmulParallelMinFLOPs {
		matMulNTBlock(dst, a, b, 0, a.Rows)
		return
	}
	grain := matmulParallelMinFLOPs / (4 * (flopsPerRow + 1))
	if parallel.Serial(a.Rows, grain+1) {
		matMulNTBlock(dst, a, b, 0, a.Rows)
		return
	}
	parallel.For(a.Rows, grain+1, func(lo, hi int) {
		matMulNTBlock(dst, a, b, lo, hi)
	})
}

// ntChunk is how many of an a row's nonzeros matMulNTBlock compacts
// per pass; the compacted values and their k indices live in fixed
// stack arrays, so the kernel never allocates.
const ntChunk = 256

// matMulNTBlock computes dst rows [lo, hi) of a·bᵀ. Output element
// (i, j) is the dot product of a's row i with b's row j, both
// contiguous. For each output row the kernel first compacts a's
// nonzeros (k ascending, the historic zero-skip) in chunks of ntChunk,
// then runs four output columns at a time as independent dot chains
// over the compacted list. Each chain is the same sequence of
// separately rounded multiply-adds the one-k-per-pass loop performs, so
// the result is bit-identical to MatMulInto on the transpose; chunks
// hand the partial sums over through dst, which is exact.
func matMulNTBlock(dst, a, b *Matrix, lo, hi int) {
	cols := b.Rows
	inner := a.Cols
	if cols == 1 {
		// a·bᵀ with a single b row is a matrix·vector product against
		// b's only (contiguous) row.
		for i := lo; i < hi; i++ {
			dst.Data[i] = pairedDot(a.Row(i), b.Data)
		}
		return
	}
	bd := b.Data
	if inner == 1 {
		// One inner column makes a·bᵀ an outer product, and b's only
		// column is contiguous: each output row is one axpy step.
		for i := lo; i < hi; i++ {
			orow := dst.Row(i)
			for j := range orow {
				orow[j] = 0
			}
			if av := a.Data[i]; av != 0 {
				axpy1(av, bd, orow)
			}
		}
		return
	}
	var vals [ntChunk]float64
	var ks [ntChunk]int
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k0 := 0; k0 < inner; k0 += ntChunk {
			k1 := k0 + ntChunk
			if k1 > inner {
				k1 = inner
			}
			// Branch-free compaction: every entry is written, and the
			// cursor advances unless the entry is ±0 (x is zero exactly
			// for ±0; NaN is kept, as the == 0 test keeps it).
			n := 0
			for k := k0; k < k1; k++ {
				v := arow[k]
				vals[n] = v
				ks[n] = k
				x := math.Float64bits(v) << 1
				n += int((x | -x) >> 63)
			}
			if n == 0 {
				continue
			}
			vs, kk := vals[:n], ks[:n]
			j := 0
			for ; j+4 <= cols; j += 4 {
				b0 := bd[j*inner : (j+1)*inner]
				b1 := bd[(j+1)*inner : (j+2)*inner]
				b2 := bd[(j+2)*inner : (j+3)*inner]
				b3 := bd[(j+3)*inner : (j+4)*inner]
				c0, c1, c2, c3 := orow[j], orow[j+1], orow[j+2], orow[j+3]
				for t, v := range vs {
					k := kk[t]
					c0 += v * b0[k]
					c1 += v * b1[k]
					c2 += v * b2[k]
					c3 += v * b3[k]
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = c0, c1, c2, c3
			}
			for ; j < cols; j++ {
				bj := bd[j*inner : (j+1)*inner]
				c := orow[j]
				for t, v := range vs {
					c += v * bj[kk[t]]
				}
				orow[j] = c
			}
		}
	}
}

// AddInPlace computes m += other element-wise.
func (m *Matrix) AddInPlace(other *Matrix) {
	m.sameShape(other, "AddInPlace")
	for i, v := range other.Data {
		m.Data[i] += v
	}
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

// AXPY computes m += s*other element-wise.
func (m *Matrix) AXPY(s float64, other *Matrix) {
	m.sameShape(other, "AXPY")
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
}

func (m *Matrix) sameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

// Apply replaces every entry x with f(x).
func (m *Matrix) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// Map returns a new matrix whose entries are f applied to m's entries.
func (m *Matrix) Map(f func(float64) float64) *Matrix {
	out := m.Clone()
	out.Apply(f)
	return out
}

// ReLU returns max(x, 0) applied element-wise as a new matrix.
func (m *Matrix) ReLU() *Matrix {
	return m.Map(func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// ReLUInPlace applies max(x, 0) element-wise in place. The predicate
// mirrors ReLU exactly (anything not greater than zero, NaN included,
// becomes 0) so the two paths stay bit-identical.
func (m *Matrix) ReLUInPlace() {
	for i, v := range m.Data {
		if !(v > 0) {
			m.Data[i] = 0
		}
	}
}

// ReLUMask returns a matrix with 1 where m > 0 and 0 elsewhere —
// the derivative of ReLU used during backpropagation.
func (m *Matrix) ReLUMask() *Matrix {
	return m.Map(func(x float64) float64 {
		if x > 0 {
			return 1
		}
		return 0
	})
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

// ColSums returns the per-column sums of m.
func (m *Matrix) ColSums() []float64 {
	sums := make([]float64, m.Cols)
	m.ColSumsInto(sums)
	return sums
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

// FrobeniusNorm returns sqrt(Σ x²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
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

// SoftmaxRows returns a new matrix with a numerically stable softmax
// applied to every row.
func (m *Matrix) SoftmaxRows() *Matrix {
	out := New(m.Rows, m.Cols)
	m.SoftmaxRowsInto(out)
	return out
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
