// Package quant models the fixed-point arithmetic a ReRAM crossbar
// imposes: values written to the array are quantised to WeightBits
// (Table II: 16-bit fixed point) and physically stored as BitsPerCell
// slices across multiple cells (2 bits per cell → 8 cells per value,
// one differential pair per cell for sign).
//
// The GCN training engine uses this package to quantise exactly the
// data the hardware quantises — weights after every gradient step and
// feature rows when they are (re)written to aggregation crossbars — so
// the accuracy experiments include the precision loss a real GoPIM
// chip would see.
package quant

import (
	"fmt"
	"math"

	"gopim/internal/tensor"
)

// Scheme is a symmetric uniform quantiser with the given total bit
// width (one bit of which encodes sign).
type Scheme struct {
	Bits  int
	Scale float64 // largest representable magnitude
}

// Fit builds a scheme covering [-maxAbs, maxAbs] with the given bits.
// maxAbs of zero yields a degenerate scheme that maps everything to 0.
func Fit(bits int, maxAbs float64) Scheme {
	if bits < 2 || bits > 62 {
		panic(fmt.Sprintf("quant: bits %d out of range 2..62", bits))
	}
	if maxAbs < 0 || math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
		panic(fmt.Sprintf("quant: bad maxAbs %v", maxAbs))
	}
	return Scheme{Bits: bits, Scale: maxAbs}
}

// Levels returns the number of positive quantisation steps.
func (s Scheme) Levels() int64 { return int64(1)<<(s.Bits-1) - 1 }

// QuantizeInt maps x to its integer code in [-Levels, Levels]. NaN
// maps to code 0 on every architecture: Go leaves the conversion of
// NaN to an integer implementation-defined (amd64 gives MinInt64,
// arm64 gives 0).
func (s Scheme) QuantizeInt(x float64) int64 {
	if s.Scale == 0 {
		return 0
	}
	levels := float64(s.Levels())
	q := math.Round(x / s.Scale * levels)
	if math.IsNaN(q) {
		return 0
	}
	if q > levels {
		q = levels
	}
	if q < -levels {
		q = -levels
	}
	return int64(q)
}

// Dequantize maps an integer code back to a float.
func (s Scheme) Dequantize(q int64) float64 {
	levels := s.Levels()
	if s.Scale == 0 || levels == 0 {
		return 0
	}
	return float64(q) / float64(levels) * s.Scale
}

// Quantize rounds x to the nearest representable value (clamping to
// the scheme's range).
func (s Scheme) Quantize(x float64) float64 {
	return s.Dequantize(s.QuantizeInt(x))
}

// QuantizeSlice quantises xs in place.
func (s Scheme) QuantizeSlice(xs []float64) {
	for i, x := range xs {
		xs[i] = s.Quantize(x)
	}
}

// QuantizeMatrix quantises m in place with a per-matrix scale derived
// from its largest magnitude, and returns the scheme used.
func QuantizeMatrix(m *tensor.Matrix, bits int) Scheme {
	s := Fit(bits, m.MaxAbs())
	s.QuantizeSlice(m.Data)
	return s
}

// Slices decomposes the magnitude of an integer code into cell slices
// of bitsPerCell each, least-significant first — the physical layout
// of one value across a crossbar's cells. The sign travels on the
// differential pair, not in the slices.
func Slices(q int64, bitsPerCell, cells int) []uint8 {
	if bitsPerCell < 1 || bitsPerCell > 8 {
		panic(fmt.Sprintf("quant: bits per cell %d out of range 1..8", bitsPerCell))
	}
	if cells < 1 {
		panic(fmt.Sprintf("quant: cells %d must be positive", cells))
	}
	mag := q
	if mag < 0 {
		mag = -mag
	}
	mask := int64(1)<<bitsPerCell - 1
	out := make([]uint8, cells)
	for i := 0; i < cells; i++ {
		out[i] = uint8(mag & mask)
		mag >>= bitsPerCell
	}
	if mag != 0 {
		panic(fmt.Sprintf("quant: code %d does not fit %d cells of %d bits", q, cells, bitsPerCell))
	}
	return out
}

// FromSlices recomposes a magnitude from cell slices and applies sign.
func FromSlices(slices []uint8, bitsPerCell int, negative bool) int64 {
	var mag int64
	for i := len(slices) - 1; i >= 0; i-- {
		mag = mag<<bitsPerCell | int64(slices[i])
	}
	if negative {
		return -mag
	}
	return mag
}

// CellsPerValue returns how many cells one value of the given bit
// width needs at bitsPerCell (sign handled differentially).
func CellsPerValue(bits, bitsPerCell int) int {
	if bitsPerCell < 1 {
		panic(fmt.Sprintf("quant: bits per cell %d must be positive", bitsPerCell))
	}
	magBits := bits - 1 // sign is differential
	if magBits < 1 {
		magBits = 1
	}
	return (magBits + bitsPerCell - 1) / bitsPerCell
}

// ApplyStuck models writing x onto a value whose cell slice sliceIdx
// is stuck: the value is quantised, decomposed into its physical cell
// slices, the stuck slice is pinned (to the full cell mask for
// stuck-at-1, to 0 for stuck-at-0), and the damaged code is recomposed
// and dequantised. The recomposed magnitude is clamped to the scheme's
// level range: a stuck-high slice in the top cell can otherwise encode
// a magnitude the differential pair cannot represent.
func ApplyStuck(s Scheme, x float64, bitsPerCell, cells, sliceIdx int, stuckHigh bool) float64 {
	if sliceIdx < 0 || sliceIdx >= cells {
		panic(fmt.Sprintf("quant: stuck slice %d out of range 0..%d", sliceIdx, cells-1))
	}
	if s.Scale == 0 {
		return 0
	}
	q := s.QuantizeInt(x)
	slices := Slices(q, bitsPerCell, cells)
	if stuckHigh {
		slices[sliceIdx] = uint8(int64(1)<<bitsPerCell - 1)
	} else {
		slices[sliceIdx] = 0
	}
	damaged := FromSlices(slices, bitsPerCell, q < 0)
	if levels := s.Levels(); damaged > levels {
		damaged = levels
	} else if damaged < -levels {
		damaged = -levels
	}
	return s.Dequantize(damaged)
}
