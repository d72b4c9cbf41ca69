package sparsemat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gopim/internal/tensor"
)

func entriesOf(es ...Entry) []Entry { return es }

func TestNewFromEntriesSortsAndSums(t *testing.T) {
	m := NewFromEntries(3, 3, entriesOf(
		Entry{2, 1, 1},
		Entry{0, 2, 3},
		Entry{2, 1, 2}, // duplicate, summed
		Entry{0, 0, 5},
	))
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if got := m.At(2, 1); got != 3 {
		t.Fatalf("At(2,1) = %v, want 3 (summed duplicates)", got)
	}
	if got := m.At(0, 0); got != 5 {
		t.Fatalf("At(0,0) = %v, want 5", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Fatalf("At(1,1) = %v, want 0", got)
	}
	cols, _ := m.Row(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Fatalf("row 0 cols = %v, want sorted [0 2]", cols)
	}
}

// TestNewFromEntriesSortedColumnInvariant pins strictly-ascending
// column order per row as an invariant of NewFromEntries on randomised
// input. At binary-searches the column slice, so this invariant is
// load-bearing: if it ever breaks, At silently misses entries. The
// map cross-check catches exactly that failure mode.
func TestNewFromEntriesSortedColumnInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		nnz := rng.Intn(4 * rows)
		es := make([]Entry, 0, nnz)
		// Positions are unique so the map comparison below stays exact;
		// duplicate summation order is TestNewFromEntriesSortsAndSums's
		// job.
		want := make(map[[2]int]float64, nnz)
		for i := 0; i < nnz; i++ {
			e := Entry{rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()}
			if _, dup := want[[2]int{e.Row, e.Col}]; dup {
				continue
			}
			es = append(es, e)
			want[[2]int{e.Row, e.Col}] = e.Val
		}
		m := NewFromEntries(rows, cols, es)
		for r := 0; r < rows; r++ {
			cs, vs := m.Row(r)
			for i := 1; i < len(cs); i++ {
				if cs[i] <= cs[i-1] {
					t.Fatalf("trial %d row %d: columns not strictly ascending: %v", trial, r, cs)
				}
			}
			for i, c := range cs {
				if got := m.At(r, c); got != vs[i] {
					t.Fatalf("trial %d: At(%d,%d) = %v, row slice says %v", trial, r, c, got, vs[i])
				}
			}
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if got := m.At(r, c); got != want[[2]int{r, c}] {
					t.Fatalf("trial %d: At(%d,%d) = %v, want %v", trial, r, c, got, want[[2]int{r, c}])
				}
			}
		}
	}
}

func TestOutOfRangeEntryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFromEntries(2, 2, entriesOf(Entry{2, 0, 1}))
}

func TestRowNNZAndSparsity(t *testing.T) {
	m := NewFromEntries(2, 4, entriesOf(Entry{0, 0, 1}, Entry{0, 3, 1}))
	if m.RowNNZ(0) != 2 || m.RowNNZ(1) != 0 {
		t.Fatalf("RowNNZ = %d,%d", m.RowNNZ(0), m.RowNNZ(1))
	}
	if got := m.Sparsity(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Sparsity = %v, want 0.75", got)
	}
}

func randomCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	es := make([]Entry, 0, nnz)
	for i := 0; i < nnz; i++ {
		es = append(es, Entry{rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()})
	}
	return NewFromEntries(rows, cols, es)
}

// Property: CSR·dense agrees with dense·dense.
func TestMulDenseMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols, k := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(6)
		s := randomCSR(rng, rows, cols, rng.Intn(rows*cols+1))
		d := tensor.NewRandom(rng, cols, k, 1)
		got := mulDense(s, d)
		want := tensor.MatMul(s.Dense(), d)
		return got.Equal(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSRᵀ·dense, computed as the GCN backward pass does
// (Transpose, then MulDenseInto), agrees with the dense product.
func TestTMulDenseMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols, k := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(6)
		s := randomCSR(rng, rows, cols, rng.Intn(rows*cols+1))
		d := tensor.NewRandom(rng, rows, k, 1)
		got := mulDense(s.Transpose(), d)
		want := tensor.MatMul(denseT(s), d)
		return got.Equal(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMulDenseDimMismatchPanics(t *testing.T) {
	m := NewFromEntries(2, 3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MulDenseInto(tensor.New(2, 2), tensor.New(2, 2))
}

func TestSymNormalizedRowSumsOfRegularGraph(t *testing.T) {
	// A 4-cycle: every vertex has degree 2 (+1 self-loop = 3).
	// Â entries are all 1/3 on the stored positions.
	es := []Entry{}
	n := 4
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		es = append(es, Entry{i, j, 1}, Entry{j, i, 1})
	}
	a := NewFromEntries(n, n, es)
	norm := a.SymNormalized()
	for r := 0; r < n; r++ {
		_, vals := norm.Row(r)
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d of Â sums to %v, want 1 for a regular graph", r, sum)
		}
	}
	// Symmetry is preserved.
	for r := 0; r < n; r++ {
		cols, vals := norm.Row(r)
		for i, c := range cols {
			if math.Abs(norm.At(c, r)-vals[i]) > 1e-12 {
				t.Fatalf("Â not symmetric at (%d,%d)", r, c)
			}
		}
	}
}

func TestSymNormalizedIsolatedVertex(t *testing.T) {
	// Vertex 1 has no edges; with the self-loop its normalised diagonal
	// entry must be 1 (degree 1, 1/sqrt(1)/sqrt(1)).
	a := NewFromEntries(2, 2, entriesOf(Entry{0, 0, 0}))
	norm := a.SymNormalized()
	if got := norm.At(1, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("isolated vertex diagonal = %v, want 1", got)
	}
}

func TestSymNormalizedNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFromEntries(2, 3, nil).SymNormalized()
}

func TestScale(t *testing.T) {
	m := NewFromEntries(1, 2, entriesOf(Entry{0, 0, 2}, Entry{0, 1, -4}))
	s := m.Scale(0.5)
	if s.At(0, 0) != 1 || s.At(0, 1) != -2 {
		t.Fatalf("Scale wrong: %v", s.Val)
	}
	if m.At(0, 0) != 2 {
		t.Fatal("Scale must not mutate the original")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := NewFromEntries(0, 0, nil)
	if m.NNZ() != 0 {
		t.Fatal("empty matrix should have no entries")
	}
	if m.Sparsity() != 0 {
		t.Fatal("empty matrix sparsity defined as 0")
	}
}

func BenchmarkMulDenseInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randomCSR(rng, 1000, 1000, 10000)
	d := tensor.NewRandom(rng, 1000, 64, 1)
	dst := tensor.New(1000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MulDenseInto(dst, d)
	}
}

func BenchmarkTransposeCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randomCSR(rng, 1000, 1000, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Transpose()
	}
}

// Â = D^{-1/2}(A+I)D^{-1/2} has spectral radius ≤ 1: power iteration
// from a random vector must not blow up.
func TestSymNormalizedSpectralRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := randomCSR(rng, 60, 60, 300)
	// Symmetrise and binarise.
	var es []Entry
	for r := 0; r < 60; r++ {
		cols, _ := s.Row(r)
		for _, c := range cols {
			if r != c {
				es = append(es, Entry{r, c, 1}, Entry{c, r, 1})
			}
		}
	}
	sym := NewFromEntries(60, 60, es)
	norm := sym.SymNormalized()
	v := tensor.NewRandom(rng, 60, 1, 1)
	for it := 0; it < 50; it++ {
		v = mulDense(norm, v)
	}
	if v.MaxAbs() > 2 { // ρ ≤ 1 → bounded (allowing slack for ρ = 1)
		t.Fatalf("power iteration diverged: %v", v.MaxAbs())
	}
}

// Aᵀ·d through Transpose equals A·d for a symmetric A.
func TestTMulDenseSymmetric(t *testing.T) {
	es := []Entry{{0, 1, 2}, {1, 0, 2}, {1, 2, 3}, {2, 1, 3}}
	m := NewFromEntries(3, 3, es)
	rng := rand.New(rand.NewSource(5))
	d := tensor.NewRandom(rng, 3, 4, 1)
	if !mulDense(m.Transpose(), d).Equal(mulDense(m, d), 1e-12) {
		t.Fatal("Aᵀ·d must equal A·d for symmetric A")
	}
}
