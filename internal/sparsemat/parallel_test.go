package sparsemat

import (
	"math/rand"
	"testing"

	"gopim/internal/parallel"
	"gopim/internal/tensor"
)

func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	parallel.SetWorkers(n)
	defer parallel.SetWorkers(0)
	f()
}

// TestMulDenseDeterministicAcrossWorkers pins the SpMM determinism
// contract: serial and parallel aggregation produce identical bytes.
func TestMulDenseDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomCSR(rng, 400, 400, 5000)
	d := tensor.NewRandom(rng, 400, 32, 1)
	var base *tensor.Matrix
	withWorkers(t, 1, func() { base = mulDense(m, d) })
	for _, w := range []int{2, 8} {
		withWorkers(t, w, func() {
			got := mulDense(m, d)
			for i := range base.Data {
				if got.Data[i] != base.Data[i] {
					t.Fatalf("workers=%d: entry %d = %v, serial %v", w, i, got.Data[i], base.Data[i])
				}
			}
		})
	}
}

// TestTransposeRoundTripAndInvariant checks that Transpose preserves
// the package-wide CSR invariant (strictly ascending columns per row),
// that values survive a double transpose bit for bit, and that every
// entry lands where At expects it.
func TestTransposeRoundTripAndInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomCSR(rng, 120, 80, 900)
	mt := m.Transpose()
	if mt.Rows != m.Cols || mt.Cols != m.Rows {
		t.Fatalf("transpose shape %dx%d, want %dx%d", mt.Rows, mt.Cols, m.Cols, m.Rows)
	}
	for r := 0; r < mt.Rows; r++ {
		cols, _ := mt.Row(r)
		for i := 1; i < len(cols); i++ {
			if cols[i] <= cols[i-1] {
				t.Fatalf("transpose row %d columns not strictly ascending: %v", r, cols)
			}
		}
	}
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			if got := mt.At(c, r); got != vals[i] {
				t.Fatalf("mt(%d,%d) = %v, want %v", c, r, got, vals[i])
			}
		}
	}
	back := mt.Transpose()
	if len(back.Val) != len(m.Val) {
		t.Fatalf("round-trip nnz %d vs %d", len(back.Val), len(m.Val))
	}
	for i := range m.Val {
		if back.Val[i] != m.Val[i] || back.ColIdx[i] != m.ColIdx[i] {
			t.Fatalf("round-trip entry %d differs", i)
		}
	}
}

// TestTMulDenseIntoMatchesTransposeMulDense pins the equivalence the
// GCN backward pass relies on: a serial scatter of mᵀ·d over m's rows
// and Transpose()·MulDenseInto accumulate every output element in
// ascending source-row order, so they must agree byte for byte at any
// worker count.
func TestTMulDenseIntoMatchesTransposeMulDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomCSR(rng, 300, 250, 4000)
	d := tensor.NewRandom(rng, 300, 24, 1)
	base := refTMulDense(m, d)
	mt := m.Transpose()
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			got := mulDense(mt, d)
			for i := range base.Data {
				if got.Data[i] != base.Data[i] {
					t.Fatalf("workers=%d: entry %d = %v, TMulDense %v", w, i, got.Data[i], base.Data[i])
				}
			}
		})
	}
}

// TestSymNormalizedDeterministicAcrossWorkers does the same for the
// GCN adjacency normalisation.
func TestSymNormalizedDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomCSR(rng, 500, 500, 4000)
	var base *CSR
	withWorkers(t, 1, func() { base = m.SymNormalized() })
	for _, w := range []int{2, 8} {
		withWorkers(t, w, func() {
			got := m.SymNormalized()
			if len(got.Val) != len(base.Val) {
				t.Fatalf("workers=%d: nnz %d vs %d", w, len(got.Val), len(base.Val))
			}
			for i := range base.Val {
				if got.Val[i] != base.Val[i] || got.ColIdx[i] != base.ColIdx[i] {
					t.Fatalf("workers=%d: entry %d differs", w, i)
				}
			}
		})
	}
}
