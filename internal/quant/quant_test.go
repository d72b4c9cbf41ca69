package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gopim/internal/tensor"
)

func TestFitValidation(t *testing.T) {
	for _, f := range []func(){
		func() { Fit(1, 1) },
		func() { Fit(63, 1) },
		func() { Fit(8, -1) },
		func() { Fit(8, math.NaN()) },
		func() { Fit(8, math.Inf(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestQuantizeBasics(t *testing.T) {
	s := Fit(16, 1.0)
	if s.Levels() != 32767 {
		t.Fatalf("Levels = %d, want 32767", s.Levels())
	}
	if got := s.Quantize(0); got != 0 {
		t.Fatalf("Quantize(0) = %v", got)
	}
	if got := s.Quantize(1.0); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("Quantize(1) = %v", got)
	}
	if got := s.Quantize(-1.0); math.Abs(got+1.0) > 1e-12 {
		t.Fatalf("Quantize(-1) = %v", got)
	}
	// Clamping.
	if got := s.Quantize(5.0); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("out-of-range must clamp: %v", got)
	}
	if got := s.Quantize(-5.0); math.Abs(got+1.0) > 1e-12 {
		t.Fatalf("out-of-range must clamp: %v", got)
	}
}

// halfStep is the worst-case rounding error of s for in-range inputs.
func halfStep(s Scheme) float64 { return s.Scale / float64(s.Levels()) / 2 }

// Property: quantisation error is bounded by half a step for in-range
// inputs, and quantisation is idempotent.
func TestQuantErrorBoundAndIdempotence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 2 + rng.Intn(15)
		scale := rng.Float64()*100 + 0.01
		s := Fit(bits, scale)
		for k := 0; k < 50; k++ {
			x := (rng.Float64()*2 - 1) * scale
			q := s.Quantize(x)
			if math.Abs(q-x) > halfStep(s)+1e-12 {
				return false
			}
			if s.Quantize(q) != q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroScaleDegenerate(t *testing.T) {
	s := Fit(8, 0)
	if s.Quantize(3.7) != 0 || s.Quantize(-1e9) != 0 {
		t.Fatal("zero-scale scheme must map everything to 0")
	}
}

func TestQuantizeMatrix(t *testing.T) {
	m := tensor.NewFromRows([][]float64{{0.5, -2.0}, {1.0, 0.001}})
	s := QuantizeMatrix(m, 16)
	if s.Scale != 2.0 {
		t.Fatalf("scale = %v, want max abs 2.0", s.Scale)
	}
	if math.Abs(m.At(0, 1)+2.0) > 1e-12 {
		t.Fatalf("extreme value must be exact: %v", m.At(0, 1))
	}
	if math.Abs(m.At(1, 1)-0.001) > halfStep(s) {
		t.Fatalf("small value error too large: %v", m.At(1, 1))
	}
}

// Property: slice decomposition round-trips for any code that fits.
func TestSlicesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 2 + rng.Intn(15)
		bpc := 1 + rng.Intn(4)
		cells := CellsPerValue(bits, bpc)
		s := Fit(bits, 10)
		x := (rng.Float64()*2 - 1) * 10
		q := s.QuantizeInt(x)
		slices := Slices(q, bpc, cells)
		back := FromSlices(slices, bpc, q < 0)
		return back == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The Table II configuration: 16-bit values on 2-bit cells need 8
// cells per value — the differential-pair footprint CrossbarsForMatrix
// assumes.
func TestCellsPerValueTableII(t *testing.T) {
	if got := CellsPerValue(16, 2); got != 8 {
		t.Fatalf("CellsPerValue(16,2) = %d, want 8", got)
	}
	if got := CellsPerValue(2, 2); got != 1 {
		t.Fatalf("CellsPerValue(2,2) = %d, want 1", got)
	}
}

func TestSlicesValidation(t *testing.T) {
	for _, f := range []func(){
		func() { Slices(1, 0, 4) },
		func() { Slices(1, 9, 4) },
		func() { Slices(1, 2, 0) },
		func() { Slices(1<<20, 2, 2) }, // does not fit
		func() { CellsPerValue(8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSlicesLSBFirst(t *testing.T) {
	// code 0b011011 at 2 bits/cell → slices [0b11, 0b10, 0b01].
	got := Slices(0b011011, 2, 3)
	if got[0] != 0b11 || got[1] != 0b10 || got[2] != 0b01 {
		t.Fatalf("Slices = %v", got)
	}
	if FromSlices(got, 2, true) != -0b011011 {
		t.Fatal("sign recomposition wrong")
	}
}

func TestApplyStuck(t *testing.T) {
	s := Fit(16, 1.0)
	cells := CellsPerValue(16, 2) // 8 cells of 2 bits
	// A healthy slice forced to its own value is a no-op.
	x := s.Quantize(0.375)
	q := s.QuantizeInt(x)
	slices := Slices(q, 2, cells)
	for idx, sl := range slices {
		want := x
		high := sl == 3
		if sl != 0 && !high {
			continue // only exact-preserving cases here
		}
		if got := ApplyStuck(s, x, 2, cells, idx, high); got != want {
			t.Fatalf("slice %d already at its stuck value: got %v, want %v", idx, got, want)
		}
	}
	// Stuck-at-0 on the most significant slice wipes the top bits.
	top := cells - 1
	big := s.Quantize(0.9)
	got := ApplyStuck(s, big, 2, cells, top, false)
	if math.Abs(got) >= math.Abs(big) {
		t.Fatalf("stuck-at-0 top slice did not shrink %v (got %v)", big, got)
	}
	// Stuck-at-1 keeps the result representable (clamped to ±Scale).
	hi := ApplyStuck(s, big, 2, cells, top, true)
	if math.Abs(hi) > s.Scale {
		t.Fatalf("stuck-at-1 escaped the scheme range: %v > %v", hi, s.Scale)
	}
	// Sign travels on the differential pair and survives.
	neg := ApplyStuck(s, -big, 2, cells, top, false)
	if neg > 0 {
		t.Fatalf("stuck slice flipped the sign: %v", neg)
	}
	// Degenerate scheme maps everything to 0.
	if got := ApplyStuck(Scheme{Bits: 16}, 0.5, 2, cells, 0, true); got != 0 {
		t.Fatalf("degenerate scheme gave %v", got)
	}
}

// NaN quantises to code 0 on every architecture, never to the
// implementation-defined int64(NaN), so a diverged weight reads as 0
// and a stuck slice damages it like any other zero.
func TestQuantizeNaN(t *testing.T) {
	s := Fit(16, 1)
	nan := math.NaN()
	if got := s.QuantizeInt(nan); got != 0 {
		t.Fatalf("QuantizeInt(NaN) = %d, want 0", got)
	}
	if got := s.Quantize(nan); got != 0 || math.Signbit(got) {
		t.Fatalf("Quantize(NaN) = %v, want +0", got)
	}
	cells := CellsPerValue(16, 2)
	for idx := 0; idx < cells; idx++ {
		for _, high := range []bool{false, true} {
			got := ApplyStuck(s, nan, 2, cells, idx, high)
			if want := ApplyStuck(s, 0, 2, cells, idx, high); got != want {
				t.Fatalf("ApplyStuck(NaN, slice %d, high=%v) = %v, want %v (as for 0)", idx, high, got, want)
			}
			if !high && got != 0 {
				t.Fatalf("ApplyStuck(NaN, slice %d, stuck-at-0) = %v, want 0", idx, got)
			}
		}
	}
}

func TestApplyStuckBadSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice index must panic")
		}
	}()
	ApplyStuck(Fit(16, 1), 0.5, 2, 8, 9, true)
}
