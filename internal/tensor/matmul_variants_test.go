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
	for i := range want.Data {
		if !bitEqual(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				label, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// naiveMatMul is the reference every GEMM kernel is pinned to: for
// each output element of a·b, k ascending, entries with a == 0 skipped,
// and acc = acc + a·b with the multiply and the add each rounded on
// their own. It shares no code with the kernels, so a fault in their
// common axpy primitive cannot cancel out of a comparison.
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
				acc = acc + av*b.Data[k*b.Cols+j]
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

// variantShapes crosses the tile boundaries (32/128) in every
// dimension, the 4-wide body/tail of the axpy and NT column loops, and
// the ntChunk boundary of the NT compaction ({7, 513, 300}: k over two
// chunks, n not a multiple of 4), and includes the degenerate
// single-row/column cases the fast paths special-case.
var variantShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {3, 5, 7}, {16, 9, 256}, {16, 256, 1}, {256, 16, 1},
	{16, 1, 256}, {130, 257, 33}, {33, 130, 257}, {64, 300, 16},
	{16, 256, 256}, {7, 513, 300},
}

// TestMatMulTNBitIdentical pins MatMulTNInto to the naive reference
// bit for bit, at several worker counts and zero densities.
func TestMatMulTNBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		for _, sh := range variantShapes {
			for _, zf := range []float64{0, 0.3, 0.9} {
				rng := rand.New(rand.NewSource(int64(41*sh.m + sh.k + sh.n)))
				a := fuzzMatrix(rng, sh.k, sh.m, zf) // aᵀ is m×k
				b := fuzzMatrix(rng, sh.k, sh.n, zf)
				want := naiveMatMul(transposed(a), b)
				got := New(sh.m, sh.n)
				MatMulTNInto(got, a, b)
				requireBitEqual(t, got, want,
					fmt.Sprintf("TN %dx%dx%d zf=%.1f w=%d", sh.m, sh.k, sh.n, zf, workers))
			}
		}
	}
}

// TestMatMulNTBitIdentical pins MatMulNTInto the same way.
func TestMatMulNTBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		for _, sh := range variantShapes {
			for _, zf := range []float64{0, 0.3, 0.9} {
				rng := rand.New(rand.NewSource(int64(17*sh.m + 3*sh.k + sh.n)))
				a := fuzzMatrix(rng, sh.m, sh.k, zf)
				b := fuzzMatrix(rng, sh.n, sh.k, zf) // bᵀ is k×n
				want := naiveMatMul(a, transposed(b))
				got := New(sh.m, sh.n)
				MatMulNTInto(got, a, b)
				requireBitEqual(t, got, want,
					fmt.Sprintf("NT %dx%dx%d zf=%.1f w=%d", sh.m, sh.k, sh.n, zf, workers))
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

// FuzzGEMM checks MatMulInto, MatMulTNInto and MatMulNTInto against
// the naive reference bit for bit. The first six bytes give m, k and n
// in [0, 300]; the rest are cycled through fuzzValue to fill a (m×k)
// and then b (k×n). The TN and NT kernels get exact transposed copies
// of the same operands, so all three must reproduce one reference.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		dim := func(p int) int { return (int(data[p]) | int(data[p+1])<<8) % 301 }
		m, k, n := dim(0), dim(2), dim(4)
		// Bound the work per input; k and n keep their full range, so
		// every SIMD tail and the NT chunk boundary stay reachable.
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
		got := New(m, n)
		MatMulInto(got, a, b)
		requireBitEqual(t, got, want, fmt.Sprintf("NN %dx%dx%d", m, k, n))
		MatMulTNInto(got, transposed(a), b)
		requireBitEqual(t, got, want, fmt.Sprintf("TN %dx%dx%d", m, k, n))
		MatMulNTInto(got, a, transposed(b))
		requireBitEqual(t, got, want, fmt.Sprintf("NT %dx%dx%d", m, k, n))
	})
}

// TestMatMulColumnVectorPath exercises the cols==1 dot fast path
// against a reference product widened to two columns (whose first
// column must match the vector product bit for bit, since per-element
// accumulation is column-independent).
func TestMatMulColumnVectorPath(t *testing.T) {
	for _, sh := range []struct{ m, k int }{{1, 1}, {7, 3}, {16, 256}, {300, 130}} {
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
			got := New(sh.m, 1)
			MatMulInto(got, a, b1)
			for i := 0; i < sh.m; i++ {
				if !bitEqual(got.Data[i], want2.At(i, 0)) {
					t.Fatalf("colvec %dx%d zf=%.2f row %d: %v != %v",
						sh.m, sh.k, zf, i, got.Data[i], want2.At(i, 0))
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
	mustPanic("NT inner", func() { MatMulNTInto(New(4, 2), a, New(2, 4)) })
	mustPanic("NT dst", func() { MatMulNTInto(New(2, 4), a, New(2, 3)) })
}

// Backward-pass shape benchmarks: fused kernels vs the historic
// transpose-then-multiply, on the shapes the MLP predictor and GCN
// training actually issue, plus the plain forward products.
func BenchmarkBackwardKernels(b *testing.B) {
	shapes := []struct {
		name    string
		kind    string // "nn": a·b, "tn": aᵀ·b, "nt": a·bᵀ
		m, k, n int
	}{
		{"mlp-dW1", "tn", 10, 16, 256},   // Xᵀ(10×16)·Δ(16×256)
		{"mlp-dW2", "tn", 256, 16, 1},    // Hᵀ(256×16)·Δ(16×1)
		{"mlp-dW4", "tn", 256, 16, 256},  // Hᵀ(256×16)·Δ(16×256)
		{"gcn-dW", "tn", 16, 1200, 16},   // Hᵀ(16×1200)·dC(1200×16)
		{"mlp-dH", "nt", 16, 1, 256},     // Δ(16×1)·Wᵀ(1×256)
		{"mlp-dH4", "nt", 16, 256, 256},  // Δ(16×256)·Wᵀ(256×256)
		{"gcn-dIn", "nt", 1200, 16, 16},  // dC(1200×16)·Wᵀ(16×16)
		{"mlp-fwd2", "nn", 16, 256, 1},   // H(16×256)·W2(256×1)
		{"mlp-fwd4", "nn", 16, 256, 256}, // H(16×256)·W1(256×256)
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(1))
		dst := New(sh.m, sh.n)
		switch sh.kind {
		case "nn":
			a := fuzzMatrix(rng, sh.m, sh.k, 0.3)
			bm := fuzzMatrix(rng, sh.k, sh.n, 0)
			b.Run(sh.name+"/plain", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, a, bm)
				}
			})
		case "nt":
			a := fuzzMatrix(rng, sh.m, sh.k, 0.3)
			bm := fuzzMatrix(rng, sh.n, sh.k, 0)
			bt := New(sh.k, sh.n)
			b.Run(sh.name+"/transpose", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					TransposeInto(bt, bm)
					MatMulInto(dst, a, bt)
				}
			})
			b.Run(sh.name+"/fusedNT", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulNTInto(dst, a, bm)
				}
			})
		case "tn":
			a := fuzzMatrix(rng, sh.k, sh.m, 0.3)
			bm := fuzzMatrix(rng, sh.k, sh.n, 0.3)
			at := New(sh.m, sh.k)
			b.Run(sh.name+"/transpose", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					TransposeInto(at, a)
					MatMulInto(dst, at, bm)
				}
			})
			b.Run(sh.name+"/fusedTN", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulTNInto(dst, a, bm)
				}
			})
		}
	}
}
