package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewFromRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected contents: %v", m.Data)
	}
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestSetAtAdd(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 7)
	m.Add(1, 0, 3)
	if got := m.At(1, 0); got != 10 {
		t.Fatalf("At(1,0) = %v, want 10", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Row(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestRowAliases(t *testing.T) {
	m := New(2, 3)
	m.Row(1)[2] = 9
	if m.At(1, 2) != 9 {
		t.Fatal("Row must alias underlying storage")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewRandom(rng, 5, 5, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if got := MatMul(a, id); !got.Equal(a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if got := MatMul(id, a); !got.Equal(a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner dim mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// refTranspose returns mᵀ by the plain element gather: the oracle the
// tiled TransposeInto is checked against.
func refTranspose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c, v := range m.Row(r) {
			out.Data[c*out.Cols+r] = v
		}
	}
	return out
}

// refAdd returns a + b element-wise.
func refAdd(a, b *Matrix) *Matrix {
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

func TestTranspose(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := transposed(a)
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose shape = %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose contents wrong: %v", at.Data)
	}
	if !transposed(at).Equal(a, 0) {
		t.Fatal("double transpose should round-trip")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random matrices.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := NewRandom(rng, m, k, 2)
		b := NewRandom(rng, k, n, 2)
		lhs := transposed(MatMul(a, b))
		rhs := MatMul(transposed(b), transposed(a))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := NewRandom(r, m, k, 1)
		b := NewRandom(r, k, n, 1)
		c := NewRandom(r, k, n, 1)
		lhs := MatMul(a, refAdd(b, c))
		rhs := refAdd(MatMul(a, b), MatMul(a, c))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestElementWiseOps(t *testing.T) {
	a := NewFromRows([][]float64{{1, -2}, {3, -4}})
	b := NewFromRows([][]float64{{10, 10}, {10, 10}})
	c := refAdd(a, b)
	c.SubInPlace(b)
	if !c.Equal(a, 0) {
		t.Fatal("Sub should undo an add")
	}
	c.MulInPlace(b)
	if c.At(1, 0) != 30 {
		t.Fatalf("MulInPlace wrong: %v", c.Data)
	}
	c.ScaleInPlace(0.1)
	if math.Abs(c.At(1, 0)-3) > 1e-12 {
		t.Fatalf("ScaleInPlace wrong: %v", c.Data)
	}
}

func TestReLUAndMask(t *testing.T) {
	a := NewFromRows([][]float64{{-1, 0, 2}})
	r := a.Clone()
	r.ReLUInPlace()
	if r.At(0, 0) != 0 || r.At(0, 1) != 0 || r.At(0, 2) != 2 {
		t.Fatalf("ReLUInPlace wrong: %v", r.Data)
	}
	// The gradient passes only where the activation is positive.
	g := NewFromRows([][]float64{{5, 5, 5}})
	g.ReLUGradInPlace(a)
	if g.At(0, 0) != 0 || g.At(0, 1) != 0 || g.At(0, 2) != 5 {
		t.Fatalf("ReLUGradInPlace wrong: %v", g.Data)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := NewFromRows([][]float64{{1, 1, 1}, {1000, 1000, 1000}, {0, math.Inf(-1), 0}})
	s := New(a.Rows, a.Cols)
	a.SoftmaxRowsInto(s)
	for r := 0; r < s.Rows; r++ {
		var sum float64
		for c := 0; c < s.Cols; c++ {
			v := s.At(r, c)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax(%d,%d) = %v out of [0,1]", r, c, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v, want 1", r, sum)
		}
	}
	if math.Abs(s.At(0, 0)-1.0/3) > 1e-9 {
		t.Fatalf("uniform row should softmax to 1/3, got %v", s.At(0, 0))
	}
}

func TestArgMaxRow(t *testing.T) {
	a := NewFromRows([][]float64{{0.1, 0.9, 0.5}, {-3, -1, -2}})
	if got := a.ArgMaxRow(0); got != 1 {
		t.Fatalf("ArgMaxRow(0) = %d, want 1", got)
	}
	if got := a.ArgMaxRow(1); got != 1 {
		t.Fatalf("ArgMaxRow(1) = %d, want 1", got)
	}
}

func TestColSums(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	s := []float64{99, 99}
	a.ColSumsInto(s)
	if s[0] != 4 || s[1] != 6 {
		t.Fatalf("ColSumsInto = %v, want [4 6]", s)
	}
}

func TestAddRowVector(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	a.AddRowVector([]float64{10, 20})
	if a.At(0, 0) != 11 || a.At(1, 1) != 24 {
		t.Fatalf("AddRowVector wrong: %v", a.Data)
	}
}

func TestNorms(t *testing.T) {
	a := NewFromRows([][]float64{{3, -4}})
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(2, 2)
	b := NewFromRows([][]float64{{1, 2}, {3, 4}})
	a.CopyFrom(b)
	if !a.Equal(b, 0) {
		t.Fatal("CopyFrom should copy contents")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	a.CopyFrom(New(1, 1))
}

func TestGlorotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewGlorot(rng, 30, 50)
	limit := math.Sqrt(6.0 / 80.0)
	for i, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Data[%d] = %v exceeds Glorot limit %v", i, v, limit)
		}
	}
}

func TestMatMulIntoReuse(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{1, 0}, {0, 1}})
	dst := New(2, 2)
	dst.Set(0, 0, 99) // stale garbage must be cleared
	MatMulInto(dst, a, b)
	if !dst.Equal(a, 1e-12) {
		t.Fatalf("MatMulInto = %v, want %v", dst.Data, a.Data)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := NewRandom(rng, 128, 128, 1)
	y := NewRandom(rng, 128, 128, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulInto128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := NewRandom(rng, 128, 128, 1)
	y := NewRandom(rng, 128, 128, 1)
	dst := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// Property: matrix multiplication is associative.
func TestMatMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, l, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := NewRandom(r, m, k, 1)
		b := NewRandom(r, k, l, 1)
		c := NewRandom(r, l, n, 1)
		lhs := MatMul(MatMul(a, b), c)
		rhs := MatMul(a, MatMul(b, c))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling commutes with multiplication.
func TestScaleCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewRandom(r, 1+r.Intn(5), 1+r.Intn(5), 1)
		b := NewRandom(r, a.Cols, 1+r.Intn(5), 1)
		s := r.NormFloat64()
		lhs := MatMul(a, b)
		lhs.ScaleInPlace(s)
		as := a.Clone()
		as.ScaleInPlace(s)
		rhs := MatMul(as, b)
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
