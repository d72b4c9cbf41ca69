package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gopim/internal/parallel"
)

// fuzzMatrix builds a rows×cols matrix with ~zeroFrac zero entries and
// a sprinkling of the awkward values the zero-skip contract cares
// about: ±0, NaN, ±Inf and denormals.
func fuzzMatrix(rng *rand.Rand, rows, cols int, zeroFrac float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch r := rng.Float64(); {
		case r < zeroFrac/2:
			m.Data[i] = 0
		case r < zeroFrac:
			m.Data[i] = math.Copysign(0, -1)
		case r < zeroFrac+0.02:
			m.Data[i] = math.NaN()
		case r < zeroFrac+0.04:
			m.Data[i] = math.Inf(1 - 2*rng.Intn(2))
		case r < zeroFrac+0.06:
			m.Data[i] = 5e-324 * float64(1+rng.Intn(9))
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// bitEqual reports got == want bit for bit — zero signs included —
// except that any NaN matches any NaN: NaN payload propagation through
// x86 add/mul depends on operand commutation the compiler is free to
// pick per expression, so payloads are not part of the determinism
// contract (no real workload feeds NaN into a product).
func bitEqual(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// requireBitEqual fails unless got and want match per bitEqual.
func requireBitEqual(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	requireSliceBitEqual(t, got.Data, want.Data, label)
}

// requireSliceBitEqual fails unless got[i] and want[i] match per
// bitEqual for every i < len(want).
func requireSliceBitEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range want {
		if !bitEqual(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// naiveMatMul is the reference every GEMM kernel is pinned to: for
// each output element of a·b, k ascending, entries with a == 0 skipped,
// and acc = acc + a·b with the multiply and the add each rounded on
// their own (the conversion keeps arm64 from fusing them). It shares
// no code with the kernels, so a fault in their common axpy primitive
// cannot cancel out of a comparison.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float64
			for k := 0; k < a.Cols; k++ {
				av := a.Data[i*a.Cols+k]
				if av == 0 {
					continue
				}
				acc = acc + float64(av*b.Data[k*b.Cols+j])
			}
			out.Data[i*b.Cols+j] = acc
		}
	}
	return out
}

// transposed returns a fresh copy of mᵀ (a transpose is exact).
func transposed(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	TransposeInto(t, m)
	return t
}

// variantShapes crosses the GEMM tile boundaries (32/128) in every
// dimension, the column kernel's passes, and the 4×4, 8×8 and 16×16
// transpose tiles, and includes the degenerate single-row/column cases
// the fast paths special-case.
var variantShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {3, 5, 7}, {16, 9, 256}, {16, 256, 1}, {256, 16, 1},
	{16, 1, 256}, {130, 257, 33}, {33, 130, 257}, {64, 300, 16},
	{16, 256, 256}, {7, 513, 300},
}

// TestMatMulTNBitIdentical pins MatMulTNInto to the naive reference
// bit for bit, at several worker counts and zero densities, on every
// kernel path.
func TestMatMulTNBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, path := range KernelPaths() {
		for _, workers := range []int{1, 2, 8} {
			parallel.SetWorkers(workers)
			for _, sh := range variantShapes {
				for _, zf := range []float64{0, 0.3, 0.9} {
					rng := rand.New(rand.NewSource(int64(41*sh.m + sh.k + sh.n)))
					a := fuzzMatrix(rng, sh.k, sh.m, zf) // aᵀ is m×k
					b := fuzzMatrix(rng, sh.k, sh.n, zf)
					want := naiveMatMul(transposed(a), b)
					got := New(sh.m, sh.n)
					WithKernel(path, func() { MatMulTNInto(got, a, b) })
					requireBitEqual(t, got, want,
						fmt.Sprintf("TN %dx%dx%d zf=%.1f w=%d path=%v", sh.m, sh.k, sh.n, zf, workers, path))
				}
			}
		}
	}
}

// naiveMatMulNT is naiveMatMul for a·bᵀ, reading b's rows in place:
// element (i, j) is the dot product of a's row i and b's row j.
func naiveMatMulNT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var acc float64
			for k := 0; k < a.Cols; k++ {
				av := a.Data[i*a.Cols+k]
				if av == 0 {
					continue
				}
				acc = acc + float64(av*b.Data[j*b.Cols+k])
			}
			out.Data[i*b.Rows+j] = acc
		}
	}
	return out
}

// TestMatMulNTBitIdentical pins a·bᵀ as the training backward passes
// compute it — TransposeInto into a scratch, then MatMulInto — to a
// reference that reads b untransposed, at several worker counts, zero
// densities and every kernel path.
func TestMatMulNTBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, path := range KernelPaths() {
		for _, workers := range []int{1, 2, 8} {
			parallel.SetWorkers(workers)
			for _, sh := range variantShapes {
				for _, zf := range []float64{0, 0.3, 0.9} {
					rng := rand.New(rand.NewSource(int64(17*sh.m + 3*sh.k + sh.n)))
					a := fuzzMatrix(rng, sh.m, sh.k, zf)
					b := fuzzMatrix(rng, sh.n, sh.k, zf) // bᵀ is k×n
					want := naiveMatMulNT(a, b)
					bt, got := New(sh.k, sh.n), New(sh.m, sh.n)
					WithKernel(path, func() {
						TransposeInto(bt, b)
						MatMulInto(got, a, bt)
					})
					requireBitEqual(t, got, want,
						fmt.Sprintf("NT %dx%dx%d zf=%.1f w=%d path=%v", sh.m, sh.k, sh.n, zf, workers, path))
				}
			}
		}
	}
}

// fuzzValue decodes one fuzz byte into a matrix entry. The low nibble
// picks the class — +0, −0, NaN, ±Inf, a subnormal or a normal value —
// and e, the entry's index, varies the value within its class.
func fuzzValue(c byte, e int) float64 {
	switch c % 16 {
	case 0, 1, 2:
		return 0
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return math.NaN()
	case 5:
		return math.Inf(1)
	case 6:
		return math.Inf(-1)
	case 7:
		return math.Float64frombits(uint64(c)<<20 | uint64(e&0xfffff))
	default:
		h := (uint64(e) + 1) * 0x9e3779b97f4a7c15
		u := float64(h>>11)/(1<<53)*2 - 1
		return math.Ldexp(u, int(c>>4)-8)
	}
}

// FuzzGEMM checks MatMulInto and MatMulTNInto against the naive
// reference bit for bit, on every kernel path. The first six bytes give
// m, k and n in [0, 300]; the rest are cycled through fuzzValue to fill
// a (m×k) and then b (k×n). The TN kernel gets an exact transposed copy
// of a, so both must reproduce one reference.
func FuzzGEMM(f *testing.F) {
	shape := func(m, k, n int, payload ...byte) []byte {
		return append([]byte{byte(m), byte(m >> 8), byte(k), byte(k >> 8), byte(n), byte(n >> 8)}, payload...)
	}
	f.Add(shape(3, 5, 7, 8, 9, 0, 10, 3, 11))
	f.Add(shape(16, 256, 256, 8, 0, 25, 0x1a, 9, 1, 0x3b))
	f.Add(shape(7, 300, 257, 0, 0, 8, 0, 4, 0x29, 7, 0, 0, 0xfe, 5, 6))
	f.Add(shape(33, 130, 1, 9, 8, 0, 3))
	f.Add(shape(5, 1, 130, 8, 3, 0x4c))
	f.Add(shape(2, 0, 9))
	// Row tiles (32) and k-blocks (128) crossed, against every output
	// width class the panel kernel has: a single column, the scalar,
	// 4-, 8- and 16-wide tails, exact and ragged 32-wide panels, and the
	// catalog's 47- and 112-wide output layers. The payload holds ±0 and
	// a subnormal but no NaN or ±Inf, which over 129 k-steps would turn
	// every output into NaN and hide a misplaced product.
	for i, n := range []int{1, 7, 15, 31, 32, 33, 47, 112} {
		f.Add(shape(33+32*(i%2), 129, n, 8, 0, 0x19, 3, 0x2a, 0x17, 9, 0, 0x3b, 0x4c, 1, 0x5d, 0x6e, 2, 0x7f, 0x28))
	}
	// Zero-free rows, which run in fours on the AVX-512 quad body: a
	// payload of normal values only, then one whose single −0 recurs
	// every 519 entries, so about one row in four loses one entry, in a
	// different k-block from row to row, and breaks its group. Row
	// counts are not multiples of 4; widths cover the masked tail. (A
	// NaN in a dense row is TestGEMMDenseQuads' case: cycled into b as
	// well, it would turn every output into NaN.)
	dense := []byte{8, 0x19, 0x2a, 0x3b, 0x4c, 0x5d, 0x6e, 0x7f, 0x28, 0x39}
	oneZero := make([]byte, 519)
	for i := range oneZero {
		oneZero[i] = dense[i%len(dense)]
	}
	oneZero[300] = 3
	for i, n := range []int{32, 33, 47, 63, 64, 17} {
		f.Add(shape(37+2*i, 300, n, [][]byte{dense, oneZero}[i%2]...))
	}
	// Single-column plain products on the MLP output layer's shape,
	// H(rows×256)·W(256×1), with about half of the entries ±0: row
	// counts below, at and across the column kernel's 4-, 8-, 16- and
	// 32-wide passes and the 8×8 transpose tiles.
	halfZero := []byte{8, 0, 0x19, 3, 0x2a, 1, 0x3b, 2, 0x4c, 0, 0x5d, 3, 0x17, 0x6e, 0, 0x7f, 3, 0x28, 1}
	for _, m := range []int{1, 3, 13, 16, 17, 33} {
		f.Add(shape(m, 256, 1, halfZero...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		dim := func(p int) int { return (int(data[p]) | int(data[p+1])<<8) % 301 }
		m, k, n := dim(0), dim(2), dim(4)
		// Bound the work per input; k and n keep their full range, so
		// every SIMD tail and tile boundary stays reachable.
		if k*n > 0 && m*k*n > 1<<21 {
			m = 1 + (1<<21)/(k*n)
		}
		payload := data[6:]
		a, b := New(m, k), New(k, n)
		e := 0
		for _, d := range [][]float64{a.Data, b.Data} {
			for i := range d {
				if len(payload) > 0 {
					d[i] = fuzzValue(payload[e%len(payload)], e)
				} else {
					d[i] = fuzzValue(byte(e), e)
				}
				e++
			}
		}
		want := naiveMatMul(a, b)
		if n == 1 {
			for i := range want.Data {
				if dot := pairedDot(a.Row(i), b.Data); !bitEqual(dot, want.Data[i]) {
					t.Fatalf("pairedDot %dx%d row %d = %v, naive %v", m, k, i, dot, want.Data[i])
				}
			}
		}
		at := transposed(a)
		got := New(m, n)
		for _, path := range KernelPaths() {
			WithKernel(path, func() { MatMulInto(got, a, b) })
			requireBitEqual(t, got, want, fmt.Sprintf("NN %dx%dx%d path=%v", m, k, n, path))
			WithKernel(path, func() { MatMulTNInto(got, at, b) })
			requireBitEqual(t, got, want, fmt.Sprintf("TN %dx%dx%d path=%v", m, k, n, path))
		}
	})
}

// TestKernelPaths checks the kernel-path detection: the list starts
// with the portable path and each path implies the ones before it (an
// AVX-512 host has AVX), the kernels default to the widest path the
// host has, and WithKernel never selects a path the host lacks. Run
// with -v, it logs the paths this host pins.
func TestKernelPaths(t *testing.T) {
	paths := KernelPaths()
	t.Logf("kernel paths on this host: %v", paths)
	for i, p := range paths {
		if p != KernelPath(i) {
			t.Fatalf("KernelPaths() = %v, want a prefix of [portable avx avx512]", paths)
		}
	}
	if cpuHasAVX512() && !cpuHasAVX() {
		t.Fatal("the CPU probe reports AVX-512 without AVX")
	}
	widest := paths[len(paths)-1]
	if kernelPath != widest {
		t.Fatalf("default kernel path %v, want the widest, %v", kernelPath, widest)
	}
	WithKernel(AVX512, func() {
		if kernelPath != widest {
			t.Fatalf("WithKernel(avx512) selected %v on a host whose widest path is %v", kernelPath, widest)
		}
	})
}

// quadMatrix returns a rows×k matrix with no ±0 entries (normal values,
// a few subnormals, one NaN in row 5 and one +Inf in row 9), then
// applies pattern, which may zero some entries: the rows it leaves
// zero-free in a k-block run in fours on the AVX-512 quad body.
func quadMatrix(rng *rand.Rand, rows, k int, pattern func(a *Matrix)) *Matrix {
	a := New(rows, k)
	for i := range a.Data {
		if rng.Float64() < 0.01 {
			a.Data[i] = 5e-324 * float64(1+rng.Intn(9))
		} else {
			a.Data[i] = rng.NormFloat64()
		}
	}
	a.Set(5, k/2, math.NaN())
	a.Set(9, k/3, math.Inf(1))
	pattern(a)
	return a
}

// TestGEMMDenseQuads pins the grouping of zero-free rows into quads
// against the naive reference, for the plain and the TN product, on
// every kernel path at 1 and 2 workers. The row counts are not
// multiples of 4 and cross a row tile, the inner dimension spans three
// k-blocks, and the widths cover every masked tail (1-31), tails after
// a full panel (33, 47, 63) and whole panels (32, 64). The patterns
// give all-dense quads, groups broken by a single ±0 in one row, and
// rows whose density changes from one k-block to the next.
func TestGEMMDenseQuads(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	const k = 300 // k-blocks of 128, 128 and 44
	patterns := []struct {
		name string
		rows int
		set  func(a *Matrix)
	}{
		{"dense", 37, func(*Matrix) {}},
		{"single-zero", 39, func(a *Matrix) {
			a.Set(2, 70, math.Copysign(0, -1))
			a.Set(13, 200, 0)
			a.Set(33, 299, 0)
		}},
		{"density-changes", 42, func(a *Matrix) {
			for r := 0; r < 8; r++ {
				a.Set(r, 130+7*r, 0) // rows 0-7 lose one entry in k-block 1
			}
			for r := 8; r < 16; r++ {
				for kk := r; kk < 128; kk += 3 {
					a.Set(r, kk, 0) // rows 8-15 are sparse in k-block 0
				}
			}
			a.Set(35, 260, math.Copysign(0, -1))
		}},
	}
	widths := []int{33, 47, 63, 32, 64}
	for n := 1; n < 32; n++ {
		widths = append(widths, n)
	}
	for _, pt := range patterns {
		rng := rand.New(rand.NewSource(int64(pt.rows)))
		a := quadMatrix(rng, pt.rows, k, pt.set)
		at := transposed(a)
		for _, n := range widths {
			// Zeros of either sign but no NaN or ±Inf in b, which would
			// turn whole columns into NaN and hide a misplaced product.
			b := benchMatrix(rng, k, n, 0.2)
			for i := 0; i < len(b.Data); i += 7 {
				b.Data[i] = -b.Data[i]
			}
			want := naiveMatMul(a, b)
			got := New(pt.rows, n)
			for _, path := range KernelPaths() {
				for _, workers := range []int{1, 2} {
					parallel.SetWorkers(workers)
					label := fmt.Sprintf("%s %dx%dx%d path=%v w=%d", pt.name, pt.rows, k, n, path, workers)
					WithKernel(path, func() { MatMulInto(got, a, b) })
					requireBitEqual(t, got, want, "NN "+label)
					WithKernel(path, func() { MatMulTNInto(got, at, b) })
					requireBitEqual(t, got, want, "TN "+label)
				}
			}
		}
	}
}

// pairedDot is the plain single-column product this package ran
// before the column kernel, kept as an oracle: Σₖ a[k]·b[k],
// k-ascending, zero entries of a skipped without an FP op, each product
// and add rounded on its own, consecutive nonzero k-steps paired only
// to shorten the loop.
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

// TestMatMulColumnVectorPath pins the single-column products, plain
// and TN, on every kernel path and at 1 and 2 workers, to two
// references: a product widened to two columns (whose first column
// must match bit for bit, since per-element accumulation is
// column-independent) and, for the plain product, pairedDot per row.
// The row counts cross the column kernel's passes, its row blocks of
// 32 and the transpose tiles; k = 4100 crosses a k-block of the
// 1-row transpose scratch.
func TestMatMulColumnVectorPath(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, sh := range []struct{ m, k int }{{1, 1}, {7, 3}, {16, 256}, {33, 129}, {300, 130}, {1, 4100}} {
		for _, zf := range []float64{0, 0.5, 0.95} {
			rng := rand.New(rand.NewSource(int64(sh.m*1000 + sh.k)))
			a := fuzzMatrix(rng, sh.m, sh.k, zf)
			b2 := fuzzMatrix(rng, sh.k, 2, zf)
			want2 := New(sh.m, 2)
			MatMulInto(want2, a, b2)
			b1 := New(sh.k, 1)
			for r := 0; r < sh.k; r++ {
				b1.Data[r] = b2.At(r, 0)
			}
			at := transposed(a)
			got, gotTN := New(sh.m, 1), New(sh.m, 1)
			for _, path := range KernelPaths() {
				for _, workers := range []int{1, 2} {
					parallel.SetWorkers(workers)
					WithKernel(path, func() {
						MatMulInto(got, a, b1)
						MatMulTNInto(gotTN, at, b1)
					})
					for i := 0; i < sh.m; i++ {
						want := want2.At(i, 0)
						if !bitEqual(got.Data[i], want) || !bitEqual(gotTN.Data[i], want) {
							t.Fatalf("colvec %dx%d zf=%.2f path=%v w=%d row %d: NN %v, TN %v, want %v",
								sh.m, sh.k, zf, path, workers, i, got.Data[i], gotTN.Data[i], want)
						}
						if dot := pairedDot(a.Row(i), b1.Data); !bitEqual(got.Data[i], dot) {
							t.Fatalf("colvec %dx%d zf=%.2f path=%v row %d: %v, pairedDot %v",
								sh.m, sh.k, zf, path, i, got.Data[i], dot)
						}
					}
				}
			}
		}
	}
}

// TestMatMulVariantPanics pins the shape/alias guards of the fused
// kernels.
func TestMatMulVariantPanics(t *testing.T) {
	a, b := New(4, 3), New(4, 5)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("TN inner", func() { MatMulTNInto(New(3, 5), New(2, 3), b) })
	mustPanic("TN dst", func() { MatMulTNInto(New(5, 3), a, b) })
	mustPanic("TN alias", func() {
		d := New(3, 5)
		d.Data = a.Data[:0:0]
		d.Data = a.Data[:15]
		MatMulTNInto(d, a, b)
	})
}

// TestSparseRowIntoOffsetGuard pins the bounds check in front of the
// unchecked assembly: an offset whose row would run past b, or a
// negative one, panics on every path, while the last in-range offset
// is accepted and a stored zero still adds its product.
func TestSparseRowIntoOffsetGuard(t *testing.T) {
	b := []float64{1, 2, 3, 4, 5, 6, math.Inf(1), 8}
	for _, path := range KernelPaths() {
		mustPanic := func(offs []int32) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("offsets %v path=%v: expected panic", offs, path)
				}
			}()
			WithKernel(path, func() { SparseRowInto(make([]float64, 3), []float64{1}, offs, b) })
		}
		mustPanic([]int32{6})
		mustPanic([]int32{-1})
		c := []float64{9, 9, 9}
		WithKernel(path, func() { SparseRowInto(c, []float64{2, 0}, []int32{5, 4}, b) })
		// 2·{6, +Inf, 8} + 0·{5, 6, +Inf}: the stored zero turns the
		// last element into NaN.
		if c[0] != 12 || !math.IsInf(c[1], 1) || !math.IsNaN(c[2]) {
			t.Fatalf("path=%v: row = %v, want [12 +Inf NaN]", path, c)
		}
	}
}

// benchMatrix builds a rows×cols matrix of normal values with about
// zeroFrac exact zeros. Benchmarks use it rather than fuzzMatrix, whose
// subnormals would time the CPU's microcode assists instead of the
// kernels; zeros keep the zero-skip as busy as post-ReLU activations.
func benchMatrix(rng *rand.Rand, rows, cols int, zeroFrac float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Float64() >= zeroFrac {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// benchOperands is how many operands with independent zero patterns a
// kernel benchmark rotates through (see BenchmarkBackwardKernels).
const benchOperands = 8

// Backward-pass shape benchmarks on the shapes the MLP predictor
// (batch 16, 256 hidden) and GCN training (900 vertices, every catalog
// dataset's 256 hidden channels) issue: the fused TN kernel against
// transpose-then-multiply, a·bᵀ as the backward passes compute it, and
// the plain forward products. zf is the zero fraction of a (and of
// the TN shapes' b): 0.5 as in post-ReLU activations, or 0 for the
// dense layers, whose zero-free a rows run on the AVX-512 quad body.
// On a shared host, compare kernels at -cpu 1: the parallel split then
// adds no scheduling noise.
func BenchmarkBackwardKernels(b *testing.B) {
	shapes := []struct {
		name    string
		kind    string // "nn": a·b, "tn": aᵀ·b, "nt": a·bᵀ
		m, k, n int
		zf      float64
	}{
		{"mlp-dW1", "tn", 10, 16, 256, 0.5},   // Xᵀ(10×16)·Δ(16×256)
		{"mlp-dW2", "tn", 256, 16, 1, 0.5},    // Hᵀ(256×16)·Δ(16×1)
		{"mlp-dW4", "tn", 256, 16, 256, 0.5},  // Hᵀ(256×16)·Δ(16×256)
		{"gcn-dW", "tn", 256, 900, 256, 0.5},  // Hᵀ(256×900)·dC(900×256)
		{"mlp-dH", "nt", 16, 1, 256, 0.5},     // Δ(16×1)·Wᵀ(1×256)
		{"mlp-dH4", "nt", 16, 256, 256, 0.5},  // Δ(16×256)·Wᵀ(256×256)
		{"gcn-dIn", "nt", 900, 256, 256, 0.5}, // dC(900×256)·Wᵀ(256×256)
		{"mlp-fwd2", "nn", 16, 256, 1, 0.5},   // H(16×256)·W2(256×1)
		{"mlp-fwd4", "nn", 16, 256, 256, 0.5}, // H(16×256)·W1(256×256)
		{"gcn-fwd", "nn", 900, 256, 256, 0.5}, // H(900×256)·W(256×256)
		// The catalog's narrower layers, which run the panel kernel's
		// column tails.
		{"gcn-out", "nn", 900, 256, 47, 0.5},   // H(900×256)·W(256×47)
		{"gcn-dWout", "tn", 256, 900, 47, 0.5}, // Hᵀ(256×900)·dC(900×47)
		{"gcn-dW0", "tn", 100, 900, 256, 0.5},  // Xᵀ(100×900)·dC(900×256)
		// Dense layers the sweep runs: Cora's features and a zero-free
		// output gradient.
		{"cora-fwd0", "nn", 300, 1433, 256, 0},    // X(300×1433)·W0(1433×256)
		{"cora-dW0", "tn", 1433, 300, 256, 0},     // Xᵀ(1433×300)·dC0(300×256)
		{"gcn-dIn-dense", "nt", 900, 256, 256, 0}, // dC(900×256)·Wᵀ(256×256)
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(1))
		dst := New(sh.m, sh.n)
		// Each op takes the next of benchOperands a operands (and TN b
		// operands), each with its own zero pattern. With one operand the
		// branch predictor learns the pattern within a few ops, and a
		// kernel that branches on zeros reads several times faster than
		// it runs in training, where every step brings new activations.
		operands := func(rows, cols int, zf float64) []*Matrix {
			ms := make([]*Matrix, benchOperands)
			for i := range ms {
				ms[i] = benchMatrix(rng, rows, cols, zf)
			}
			return ms
		}
		switch sh.kind {
		case "nn":
			as := operands(sh.m, sh.k, sh.zf)
			bm := benchMatrix(rng, sh.k, sh.n, 0)
			b.Run(sh.name+"/plain", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, as[i%benchOperands], bm)
				}
			})
		case "nt":
			as := operands(sh.m, sh.k, sh.zf)
			bm := benchMatrix(rng, sh.n, sh.k, 0)
			bt := New(sh.k, sh.n)
			b.Run(sh.name+"/transpose+plain", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					TransposeInto(bt, bm)
					MatMulInto(dst, as[i%benchOperands], bt)
				}
			})
		case "tn":
			as := operands(sh.k, sh.m, sh.zf)
			bs := operands(sh.k, sh.n, sh.zf)
			at := New(sh.m, sh.k)
			b.Run(sh.name+"/transpose+plain", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					TransposeInto(at, as[i%benchOperands])
					MatMulInto(dst, at, bs[i%benchOperands])
				}
			})
			b.Run(sh.name+"/fusedTN", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulTNInto(dst, as[i%benchOperands], bs[i%benchOperands])
				}
			})
		}
	}
}
