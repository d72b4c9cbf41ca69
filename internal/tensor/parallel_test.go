package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"gopim/internal/parallel"
)

// TestMatMulAliasPanics pins the MatMulInto aliasing guard: reusing an
// operand's storage as the destination must fail loudly instead of
// silently accumulating garbage.
func TestMatMulAliasPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewRandom(rng, 8, 8, 1)
	b := NewRandom(rng, 8, 8, 1)
	for _, tc := range []struct {
		name string
		dst  *Matrix
	}{
		{"dst==a", a},
		{"dst==b", b},
		{"shared Data slice", &Matrix{Rows: 8, Cols: 8, Data: a.Data}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected aliasing panic")
				}
			}()
			MatMulInto(tc.dst, a, b)
		})
	}
	// Non-aliased reuse must still work.
	dst := New(8, 8)
	MatMulInto(dst, a, b)
}

// withWorkers runs f at a fixed worker count and restores the default.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	parallel.SetWorkers(n)
	defer parallel.SetWorkers(0)
	f()
}

// TestMatMulDeterministicAcrossWorkers asserts the parallel GEMM is
// byte-identical to the serial kernel: same blocked accumulation per
// row regardless of how many workers claim the blocks. Sizes straddle
// the serial-fallback threshold.
func TestMatMulDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sz := range []struct{ m, k, n int }{
		{5, 7, 3},    // below threshold: serial fallback
		{64, 96, 80}, // above threshold: parallel kernel
	} {
		a := NewRandom(rng, sz.m, sz.k, 1)
		b := NewRandom(rng, sz.k, sz.n, 1)
		var base *Matrix
		withWorkers(t, 1, func() { base = MatMul(a, b) })
		for _, w := range []int{2, 8} {
			withWorkers(t, w, func() {
				got := MatMul(a, b)
				for i := range base.Data {
					if got.Data[i] != base.Data[i] {
						t.Fatalf("%dx%dx%d workers=%d: entry %d = %v, serial %v",
							sz.m, sz.k, sz.n, w, i, got.Data[i], base.Data[i])
					}
				}
			})
		}
	}
}

// TestBlockedMatMulMatchesReference pins the cache-blocked kernel to
// the naive reference loop (naiveMatMul), byte for byte. Sizes
// deliberately straddle the gemmBlockI/K tile and gemmPanelCols panel
// boundaries (including non-multiples), and a sprinkling of exact
// zeros exercises the zero-skip, which must fire identically in both
// kernels for the accumulation orders to agree.
func TestBlockedMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sz := range []struct{ m, k, n int }{
		{1, 1, 1},
		{7, 5, 9}, // everything inside one tile
		{gemmBlockI, gemmBlockK, 4 * gemmPanelCols},           // exact tile multiples
		{gemmBlockI + 3, gemmBlockK + 5, 4*gemmPanelCols + 7}, // ragged tails
		{70, 260, 150}, // several tiles each way
	} {
		a := NewRandom(rng, sz.m, sz.k, 1)
		b := NewRandom(rng, sz.k, sz.n, 1)
		for i := 0; i < len(a.Data); i += 3 {
			a.Data[i] = 0 // exercise the zero-skip
		}
		ref := naiveMatMul(a, b)
		for _, w := range []int{1, 2, 8} {
			withWorkers(t, w, func() {
				got := MatMul(a, b)
				for i := range ref.Data {
					if got.Data[i] != ref.Data[i] {
						t.Fatalf("%dx%dx%d workers=%d: entry %d = %v, reference %v",
							sz.m, sz.k, sz.n, w, i, got.Data[i], ref.Data[i])
					}
				}
			})
		}
	}
}

// TestTransposeInto pins the tiled Into transpose against the plain
// gather refTranspose on every kernel path — on shapes below, at and
// across the 4×4 and 8×8 register tiles and the 16×16 Go tiles, most
// of them not multiples of any — and its shape/alias guards.
func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range [][2]int{{0, 5}, {1, 1}, {17, 29}, {16, 16}, {15, 33}, {1, 40}, {40, 1},
		{130, 257}, {4, 4}, {8, 8}, {9, 7}, {64, 64}, {65, 72}, {256, 256}} {
		m := NewRandom(rng, sh[0], sh[1], 1)
		want := refTranspose(m)
		for _, path := range KernelPaths() {
			dst := New(sh[1], sh[0])
			WithKernel(path, func() { TransposeInto(dst, m) })
			for i := range want.Data {
				if dst.Data[i] != want.Data[i] {
					t.Fatalf("%dx%d path=%v entry %d: %v vs %v", sh[0], sh[1], path, i, dst.Data[i], want.Data[i])
				}
			}
		}
	}
	m := NewRandom(rng, 17, 29, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected shape panic")
			}
		}()
		TransposeInto(New(17, 29), m)
	}()
	sq := NewRandom(rng, 8, 8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected alias panic")
		}
	}()
	TransposeInto(sq, sq)
}

// TestTransposeDeterministicAcrossWorkers does the same for
// TransposeInto, which the GCN backward pass calls inside parallel
// sections.
func TestTransposeDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewRandom(rng, 150, 130, 1)
	var base *Matrix
	withWorkers(t, 1, func() { base = transposed(m) })
	for _, w := range []int{2, 8} {
		withWorkers(t, w, func() {
			got := transposed(m)
			for i := range base.Data {
				if got.Data[i] != base.Data[i] {
					t.Fatalf("workers=%d: transpose entry %d differs", w, i)
				}
			}
		})
	}
}

// BenchmarkTranspose times TransposeInto on every kernel path over the
// 256×256 weight matrix whose transpose the MLP and GCN backward passes
// rebuild every step, and the strided block transpose of one batch-16
// row block of a 16×256 activation, which the plain single-column
// product runs before its column kernel.
func BenchmarkTranspose(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w, wt := NewRandom(rng, 256, 256, 1), New(256, 256)
	h, scratch := NewRandom(rng, 16, 256, 1), make([]float64, 16*256)
	for _, path := range KernelPaths() {
		WithKernel(path, func() {
			b.Run(fmt.Sprintf("256x256/path=%v", path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					TransposeInto(wt, w)
				}
			})
			b.Run(fmt.Sprintf("block-16x256/path=%v", path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					transpose(scratch, 16, h.Data, 256, 16, 256)
				}
			})
		})
	}
}
