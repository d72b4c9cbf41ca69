package sparsemat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gopim/internal/tensor"
)

// mulDense returns m·d through MulDenseInto.
func mulDense(m *CSR, d *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Rows, d.Cols)
	m.MulDenseInto(out, d)
	return out
}

// denseT expands mᵀ into a dense matrix.
func denseT(m *CSR) *tensor.Matrix {
	out := tensor.New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			out.Set(c, r, vals[i])
		}
	}
	return out
}

// refSpMM is the scalar fold MulDenseInto is pinned to: each output
// element starts at +0 and adds every stored term of its row in
// ascending column order, stored zeros included, the product and the
// add each rounded on their own. It shares no code with the kernel.
func refSpMM(m *CSR, d *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Rows, d.Cols)
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for j := 0; j < d.Cols; j++ {
			acc := 0.0
			for i, c := range cols {
				acc = acc + float64(vals[i]*d.Data[c*d.Cols+j])
			}
			out.Data[r*d.Cols+j] = acc
		}
	}
	return out
}

// refTMulDense computes mᵀ·d by a serial scatter over m's rows, so
// each output element accumulates in ascending source-row order.
func refTMulDense(m *CSR, d *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Cols, d.Cols)
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		drow := d.Row(r)
		for i, c := range cols {
			orow := out.Row(c)
			for j, dv := range drow {
				orow[j] += float64(vals[i] * dv)
			}
		}
	}
	return out
}

// requireBitEqual fails unless got and want hold the same bits at
// every element, counting any NaN equal to any other.
func requireBitEqual(t *testing.T, got, want *tensor.Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				label, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// Fixtures: three row-degree shapes a row-partitioned product can get
// wrong. All are sized past spmmParallelMinFLOPs so the parallel split
// engages, and the dense width crosses several 32-column panels.

// skewedCSR: a handful of heavy rows over a light power-law tail.
func skewedCSR(rng *rand.Rand) *CSR {
	const rows, cols = 300, 300
	var entries []Entry
	for r := 0; r < 4; r++ {
		for c := 0; c < cols; c += 2 {
			entries = append(entries, Entry{Row: r, Col: c, Val: rng.NormFloat64()})
		}
	}
	for r := 4; r < rows; r++ {
		deg := 1 + rng.Intn(4)
		for k := 0; k < deg; k++ {
			entries = append(entries, Entry{Row: r, Col: rng.Intn(cols), Val: rng.NormFloat64()})
		}
	}
	return NewFromEntries(rows, cols, entries)
}

// emptyRowCSR: a random graph with a contiguous band of empty rows and
// a few isolated ones.
func emptyRowCSR(rng *rand.Rand) *CSR {
	const rows, cols = 260, 200
	var entries []Entry
	for r := 0; r < rows; r++ {
		if (r >= 40 && r < 80) || r == 0 || r == rows-1 {
			continue
		}
		deg := 1 + rng.Intn(6)
		for k := 0; k < deg; k++ {
			entries = append(entries, Entry{Row: r, Col: rng.Intn(cols), Val: rng.NormFloat64()})
		}
	}
	return NewFromEntries(rows, cols, entries)
}

// singleHubCSR: one row of 356 entries, everything else degree ≤ 2.
func singleHubCSR(rng *rand.Rand) *CSR {
	const rows, cols, hub = 500, 500, 7
	var entries []Entry
	for c := 0; c < 356; c++ {
		entries = append(entries, Entry{Row: hub, Col: c, Val: rng.NormFloat64()})
	}
	for r := 0; r < rows; r++ {
		if r == hub {
			continue
		}
		entries = append(entries, Entry{Row: r, Col: rng.Intn(cols), Val: rng.NormFloat64()})
	}
	return NewFromEntries(rows, cols, entries)
}

var strategyFixtures = []struct {
	name  string
	build func(*rand.Rand) *CSR
}{
	{"skewed", skewedCSR},
	{"emptyRows", emptyRowCSR},
	{"singleHub", singleHubCSR},
}

// TestStrategiesBitwiseEqualMulDense pins MulDenseInto against the
// scalar fold, bit for bit, on every kernel path and under every
// worker split (1, 2 and 8 workers), on the three fixture shapes.
func TestStrategiesBitwiseEqualMulDense(t *testing.T) {
	for _, fx := range strategyFixtures {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			m := fx.build(rng)
			d := tensor.NewRandom(rng, m.Cols, 200, 1)
			want := refSpMM(m, d)
			for _, avx := range tensor.KernelPaths() {
				for _, w := range []int{1, 2, 8} {
					withWorkers(t, w, func() {
						var got *tensor.Matrix
						tensor.WithAVX(avx, func() { got = mulDense(m, d) })
						requireBitEqual(t, got, want, fmt.Sprintf("avx=%v workers=%d", avx, w))
					})
				}
			}
		})
	}
}

// TestStrategiesBitwiseEqualTMulDense pins the backward-aggregation
// route the same way: MulDenseInto over Âᵀ (the once-per-Train
// transpose) must match a serial scatter over Â's rows bit for bit.
func TestStrategiesBitwiseEqualTMulDense(t *testing.T) {
	for _, fx := range strategyFixtures {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			m := fx.build(rng)
			d := tensor.NewRandom(rng, m.Rows, 200, 1)
			want := refTMulDense(m, d)
			mt := m.Transpose()
			for _, avx := range tensor.KernelPaths() {
				for _, w := range []int{1, 2, 8} {
					withWorkers(t, w, func() {
						var got *tensor.Matrix
						tensor.WithAVX(avx, func() { got = mulDense(mt, d) })
						requireBitEqual(t, got, want, fmt.Sprintf("avx=%v workers=%d", avx, w))
					})
				}
			}
		})
	}
}

// TestStrategiesDirtyDst checks that MulDenseInto fully overwrites a
// poisoned destination, empty rows included — the Into contract the
// training workspaces rely on when buffers are reused across epochs.
func TestStrategiesDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := emptyRowCSR(rng)
	d := tensor.NewRandom(rng, m.Cols, 150, 1)
	want := refSpMM(m, d)
	for _, avx := range tensor.KernelPaths() {
		for _, w := range []int{1, 2} {
			got := tensor.New(m.Rows, d.Cols)
			for i := range got.Data {
				got.Data[i] = 1e18
			}
			withWorkers(t, w, func() {
				tensor.WithAVX(avx, func() { m.MulDenseInto(got, d) })
			})
			requireBitEqual(t, got, want, fmt.Sprintf("avx=%v workers=%d", avx, w))
		}
	}
}

// spmmWidths are the dense widths FuzzSpMM picks from: a single
// column, the kernel's scalar and 4/8/16-wide tails, an exact and a
// ragged 32-wide panel, a 47-wide output layer and the 256-wide hidden
// layer.
var spmmWidths = [...]int{1, 7, 15, 31, 32, 33, 47, 256}

// spmmSpecials are the awkward values a payload byte below
// len(spmmSpecials) selects.
var spmmSpecials = [...]float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 1e-310, math.MaxFloat64,
}

// FuzzSpMM checks MulDenseInto against refSpMM bit for bit, on every
// kernel path and at 1 and 2 workers, starting from a poisoned dst.
// shape packs the row count (1–12), the column count (1–400) and the
// dense width; kinds gives each row's length, two bits per row: empty,
// one entry, an odd count, or every column (more than 129 entries once
// there are 130 columns). Values are normal draws from seed, except
// where the cycled payload byte selects one of spmmSpecials. The CSR is
// built directly, so stored zeros of either sign stay stored.
func FuzzSpMM(f *testing.F) {
	for i := range spmmWidths {
		// 5 rows over 200 columns, one row of each length class plus
		// a dense one; the payload holds zeros and a subnormal but no
		// NaN or ±Inf, which would hide a misplaced product.
		f.Add(int64(i), uint32(4|199<<4|i<<13), uint32(0b11_10_01_00_11), []byte{0, 20, 1, 30, 5, 40, 50, 7, 60})
	}
	// A stored zero times ±Inf in d: a dropped zero loses the NaN.
	f.Add(int64(9), uint32(2|9<<4|1<<13), uint32(0b10_01_10), []byte{0, 9, 9, 3, 9, 1, 9, 9, 4, 9})
	f.Add(int64(10), uint32(11|399<<4|7<<13), uint32(0xffffff), []byte{})
	f.Add(int64(11), uint32(0), uint32(0), []byte{2})
	f.Fuzz(func(t *testing.T, seed int64, shape, kinds uint32, payload []byte) {
		rows := 1 + int(shape&15)%12
		cols := 1 + int(shape>>4&511)%400
		width := spmmWidths[shape>>13&7]
		rng := rand.New(rand.NewSource(seed))
		e := 0
		value := func() float64 {
			defer func() { e++ }()
			if len(payload) > 0 {
				if p := int(payload[e%len(payload)]); p < len(spmmSpecials) {
					return spmmSpecials[p]
				}
			}
			return rng.NormFloat64()
		}
		m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
		for r := 0; r < rows; r++ {
			var n int
			switch kinds >> (2 * (r % 16)) & 3 {
			case 1:
				n = 1
			case 2:
				n = 1 + 2*rng.Intn((cols+1)/2)
			case 3:
				n = cols
			}
			picked := rng.Perm(cols)[:n]
			sort.Ints(picked)
			for _, c := range picked {
				m.ColIdx = append(m.ColIdx, c)
				m.Val = append(m.Val, value())
			}
			m.RowPtr[r+1] = len(m.ColIdx)
		}
		d := tensor.New(cols, width)
		for i := range d.Data {
			d.Data[i] = value()
		}
		want := refSpMM(m, d)
		for _, avx := range tensor.KernelPaths() {
			for _, w := range []int{1, 2} {
				got := tensor.New(rows, width)
				for i := range got.Data {
					got.Data[i] = math.NaN()
				}
				withWorkers(t, w, func() {
					tensor.WithAVX(avx, func() { m.MulDenseInto(got, d) })
				})
				requireBitEqual(t, got, want, fmt.Sprintf("%dx%d·%dx%d avx=%v workers=%d",
					rows, cols, cols, width, avx, w))
			}
		}
	})
}

// BenchmarkCSRAtHubRow measures At on a hub row. The binary-search At
// (sort.SearchInts over the sorted-column invariant) is the shipped
// implementation; the linear sub-benchmark re-implements the old scan
// as the comparison baseline, so the win is visible in one run.
func BenchmarkCSRAtHubRow(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	m := singleHubCSR(rng)
	const hub = 7
	cols, vals := m.Row(hub)
	probe := cols[len(cols)-1] // worst case for the linear scan
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += m.At(hub, probe)
		}
		_ = sink
	})
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			for j, c := range cols {
				if c == probe {
					sink += vals[j]
					break
				}
			}
		}
		_ = sink
	})
}

// BenchmarkMulDenseShapes times MulDenseInto on the three fixtures at
// a GCN hidden width.
func BenchmarkMulDenseShapes(b *testing.B) {
	for _, fx := range strategyFixtures {
		rng := rand.New(rand.NewSource(37))
		m := fx.build(rng)
		d := tensor.NewRandom(rng, m.Cols, 256, 1)
		dst := tensor.New(m.Rows, d.Cols)
		b.Run(fx.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.MulDenseInto(dst, d)
			}
		})
	}
}
