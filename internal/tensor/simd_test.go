package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// gcnAdamCoef and mlpAdamCoef build step t's coefficients the way the
// two callers do: gcn from untyped constants, whose 1-β folds exactly
// (0.1, 0.001), and mlp from float64 fields, whose 1-β is rounded at
// run time (0.09999999999999998, 0.0010000000000000009).
func gcnAdamCoef(t int, lr float64) AdamCoef {
	const b1, b2, eps = 0.9, 0.999, 1e-8
	return AdamCoef{
		B1: b1, OneMinusB1: 1 - b1, B2: b2, OneMinusB2: 1 - b2,
		C1: 1 - math.Pow(b1, float64(t)), C2: 1 - math.Pow(b2, float64(t)),
		LR: lr, Eps: eps,
	}
}

func mlpAdamCoef(t int, lr, beta1, beta2, eps float64) AdamCoef {
	return AdamCoef{
		B1: beta1, OneMinusB1: 1 - beta1, B2: beta2, OneMinusB2: 1 - beta2,
		C1: 1 - math.Pow(beta1, float64(t)), C2: 1 - math.Pow(beta2, float64(t)),
		LR: lr, Eps: eps,
	}
}

// refAdam, refGemvColumns, refAddRowVector, refColSums, refReLU and
// refReLUGrad are the scalar references the element-wise kernels are
// pinned to, one rounded operation at a time.
func refAdam(w, g, m, v []float64, k *AdamCoef) {
	for j := range w {
		m[j] = float64(k.B1*m[j]) + float64(k.OneMinusB1*g[j])
		v[j] = float64(k.B2*v[j]) + float64(float64(k.OneMinusB2*g[j])*g[j])
		w[j] = w[j] - float64(k.LR*(m[j]/k.C1))/(math.Sqrt(v[j]/k.C2)+k.Eps)
	}
}

func refGemvColumns(x []float64, ldx int, s, y []float64) {
	for k := range s {
		for j := range y {
			if xv := x[k*ldx+j]; xv != 0 {
				y[j] = y[j] + float64(xv*s[k])
			}
		}
	}
}

func refAddRowVector(m *Matrix, v []float64) {
	for r := 0; r < m.Rows; r++ {
		for c := range v {
			m.Data[r*m.Cols+c] = m.Data[r*m.Cols+c] + v[c]
		}
	}
}

func refColSums(m *Matrix) []float64 {
	sums := make([]float64, m.Cols)
	for r := 0; r < m.Rows; r++ {
		for c := range sums {
			sums[c] = sums[c] + m.Data[r*m.Cols+c]
		}
	}
	return sums
}

func refReLU(x []float64) {
	for i, v := range x {
		if !(v > 0) {
			x[i] = 0
		}
	}
}

func refReLUGrad(d, act []float64) {
	for j, av := range act {
		if !(av > 0) {
			d[j] = d[j] * 0
		}
	}
}

// FuzzElementwise checks AdamStep (under both callers' coefficient
// conventions, and with C1 = 1, where the bias-correction divide is
// skipped), the GEMM column kernel, AddRowVector, ColSumsInto,
// TransposeInto (and the strided block transpose under the plain
// single-column GEMM), ReLUInPlace and ReLUGradInPlace against the
// scalar references bit for bit, on every kernel path. The first byte
// gives the length n in [0, 70], which crosses every SIMD body/tail
// split; the second the Adam step number, one column-kernel scale, and
// a row count in [1, 12], which crosses the 4×4 and 8×8 transpose
// tiles; the rest are cycled through fuzzValue (±0, NaN, ±Inf,
// subnormal and normal values) to fill the operands. The column kernel
// also runs with a scale of every awkward class.
func FuzzElementwise(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{7, 3, 8, 9, 0, 10, 3, 11, 4, 5, 6, 7})
	f.Add([]byte{70, 9, 0x18, 0x28, 3, 0, 0x47, 0xf8, 0x7a})
	f.Add([]byte{33, 1, 0x38, 2, 0x19, 4, 0x29, 5, 6, 0x88})
	// 9×17, 8×16, 12×33 and 5×4 matrices: 8-lane and 4-lane tiles with
	// and without tails on either side.
	f.Add([]byte{17, 160, 8, 0x19, 3, 0x2a, 4, 0x3b, 7, 5, 0x4c, 0, 6})
	f.Add([]byte{16, 140, 0x5d, 0x17, 0x6e, 2, 0x7f, 0x28})
	f.Add([]byte{33, 220, 8, 3, 0x19, 0x27, 0x2a, 1, 4})
	f.Add([]byte{4, 80, 0x39, 0x4a, 0, 0x5b, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, step, rows, payload := int(data[0])%71, 1+int(data[1])%20, 1+int(data[1]/20)%12, data[2:]
		e := 0
		fill := func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				if len(payload) > 0 {
					s[i] = fuzzValue(payload[e%len(payload)], e)
				} else {
					s[i] = fuzzValue(byte(e), e)
				}
				e++
			}
			return s
		}
		w, g, m, v, act := fill(n), fill(n), fill(n), fill(n), fill(n)
		mat := &Matrix{Rows: rows, Cols: n, Data: fill(rows * n)}
		clone := func(s []float64) []float64 { return append([]float64(nil), s...) }
		unbiased := mlpAdamCoef(step, 1e-3, 0.9, 0.999, 1e-8)
		unbiased.C1 = 1
		coefs := []AdamCoef{gcnAdamCoef(step, 0.01), mlpAdamCoef(step, 1e-3, 0.9, 0.999, 1e-8), unbiased}
		for _, path := range KernelPaths() {
			for ci := range coefs {
				k := &coefs[ci]
				ww, wm, wv := clone(w), clone(m), clone(v)
				refAdam(ww, g, wm, wv, k)
				gw, gm, gv := clone(w), clone(m), clone(v)
				WithKernel(path, func() { AdamStep(gw, g, gm, gv, k) })
				label := fmt.Sprintf("adam n=%d coef=%d path=%v", n, ci, path)
				requireSliceBitEqual(t, gm, wm, label+" m")
				requireSliceBitEqual(t, gv, wv, label+" v")
				requireSliceBitEqual(t, gw, ww, label+" w")
			}

			// The column kernel over mat's rows as its k-steps, both
			// over whole rows and over a segment of each.
			scales := [][]float64{w[:min(rows, n)], {fuzzValue(data[1], n)}, {0}, {math.Copysign(0, -1)},
				{math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}, {5e-324}, {-1.5}}
			for _, sc := range scales {
				for _, seg := range [][2]int{{0, n}, {n / 3, n - n/4}} {
					y := v[seg[0]:seg[1]]
					want := clone(y)
					refGemvColumns(mat.Data[seg[0]:], n, sc, want)
					got := clone(y)
					WithKernel(path, func() { gemvColumns(mat.Data[seg[0]:], n, sc, got) })
					requireSliceBitEqual(t, got, want,
						fmt.Sprintf("gemv %dx%d seg=%v s=%v path=%v", len(sc), n, seg, sc, path))
				}
			}

			want := mat.Clone()
			refAddRowVector(want, w)
			got := mat.Clone()
			WithKernel(path, func() { got.AddRowVector(w) })
			requireBitEqual(t, got, want, fmt.Sprintf("add row vector %dx%d path=%v", rows, n, path))

			sums := clone(act) // stale contents the kernel must clear
			WithKernel(path, func() { mat.ColSumsInto(sums) })
			requireSliceBitEqual(t, sums, refColSums(mat), fmt.Sprintf("col sums %dx%d path=%v", rows, n, path))

			tr := New(n, rows)
			WithKernel(path, func() { TransposeInto(tr, mat) })
			requireBitEqual(t, tr, refTranspose(mat), fmt.Sprintf("transpose %dx%d path=%v", rows, n, path))

			// The strided block form: rows × (n−1) of mat into a dst
			// whose rows are rows+3 long. The padding must stay as it was.
			if n > 1 {
				const pad = 3
				ldd := rows + pad
				dst := make([]float64, (n-1)*ldd)
				for i := range dst {
					dst[i] = -7
				}
				WithKernel(path, func() { transpose(dst, ldd, mat.Data, n, rows, n-1) })
				for c := 0; c < n-1; c++ {
					for r := 0; r < ldd; r++ {
						wantV := -7.0
						if r < rows {
							wantV = mat.Data[r*n+c]
						}
						if gotV := dst[c*ldd+r]; !bitEqual(gotV, wantV) {
							t.Fatalf("strided transpose %dx%d path=%v: dst[%d][%d] = %v, want %v", rows, n-1, path, c, r, gotV, wantV)
						}
					}
				}
			}

			want = &Matrix{Rows: 1, Cols: n, Data: clone(w)}
			refReLU(want.Data)
			got = &Matrix{Rows: 1, Cols: n, Data: clone(w)}
			WithKernel(path, got.ReLUInPlace)
			requireBitEqual(t, got, want, fmt.Sprintf("relu n=%d path=%v", n, path))

			want = &Matrix{Rows: 1, Cols: n, Data: clone(g)}
			refReLUGrad(want.Data, act)
			got = &Matrix{Rows: 1, Cols: n, Data: clone(g)}
			WithKernel(path, func() { got.ReLUGradInPlace(&Matrix{Rows: 1, Cols: n, Data: act}) })
			requireBitEqual(t, got, want, fmt.Sprintf("relu grad n=%d path=%v", n, path))
		}
	})
}

// TestAdamStepCoefficientConventions pins AdamStep to both callers'
// historic update loops over several steps: gcn's, whose 1-β are folded
// untyped constants, and mlp's, whose 1-β are computed at run time. The
// two conventions round differently, so a caller that passed the other
// one's 1-β would drift; the last check shows the drift is observable.
// The historic loops are copied with each product explicitly rounded,
// which is what they compile to on amd64.
func TestAdamStepCoefficientConventions(t *testing.T) {
	const b1, b2 = 0.9, 0.999
	beta1, beta2 := 0.9, 0.999
	if 1-b1 != 0.1 || 1-beta1 != 0.09999999999999998 || 1-b2 != 0.001 || 1-beta2 != 0.0010000000000000009 {
		t.Fatalf("1-β: constant %v %v, run time %v %v", 1-b1, 1-b2, 1-beta1, 1-beta2)
	}
	gcnHistoric := func(w, g, m, v []float64, lr float64, step int) {
		const b1, b2, eps = 0.9, 0.999, 1e-8
		c1 := 1 - math.Pow(b1, float64(step))
		c2 := 1 - math.Pow(b2, float64(step))
		for j := range w {
			m[j] = float64(b1*m[j]) + float64((1-b1)*g[j])
			v[j] = float64(b2*v[j]) + float64(float64((1-b2)*g[j])*g[j])
			w[j] -= float64(lr*(m[j]/c1)) / (math.Sqrt(v[j]/c2) + eps)
		}
	}
	mlpHistoric := func(w, g, m, v []float64, lr, beta1, beta2, eps float64, step int) {
		c1 := 1 - math.Pow(beta1, float64(step))
		c2 := 1 - math.Pow(beta2, float64(step))
		for j := range w {
			m[j] = float64(beta1*m[j]) + float64((1-beta1)*g[j])
			v[j] = float64(beta2*v[j]) + float64(float64((1-beta2)*g[j])*g[j])
			w[j] -= float64(lr*(m[j]/c1)) / (math.Sqrt(v[j]/c2) + eps)
		}
	}
	type state struct{ w, m, v []float64 }
	const n, steps, lr = 67, 6, 0.01
	for _, path := range KernelPaths() {
		rng := rand.New(rand.NewSource(5))
		w0 := benchMatrix(rng, 1, n, 0.1).Data
		fresh := func() state {
			return state{append([]float64(nil), w0...), make([]float64, n), make([]float64, n)}
		}
		gcnGot, mlpGot, swapped, gcnWant, mlpWant := fresh(), fresh(), fresh(), fresh(), fresh()
		for step := 1; step <= steps; step++ {
			g := benchMatrix(rng, 1, n, 0.1).Data
			kg := gcnAdamCoef(step, lr)
			km := mlpAdamCoef(step, lr, beta1, beta2, 1e-8)
			WithKernel(path, func() {
				AdamStep(gcnGot.w, g, gcnGot.m, gcnGot.v, &kg)
				AdamStep(mlpGot.w, g, mlpGot.m, mlpGot.v, &km)
				AdamStep(swapped.w, g, swapped.m, swapped.v, &kg)
			})
			gcnHistoric(gcnWant.w, g, gcnWant.m, gcnWant.v, lr, step)
			mlpHistoric(mlpWant.w, g, mlpWant.m, mlpWant.v, lr, beta1, beta2, 1e-8, step)
		}
		for _, c := range []struct {
			name      string
			got, want state
		}{{"gcn", gcnGot, gcnWant}, {"mlp", mlpGot, mlpWant}} {
			requireSliceBitEqual(t, c.got.m, c.want.m, fmt.Sprintf("%s m path=%v", c.name, path))
			requireSliceBitEqual(t, c.got.v, c.want.v, fmt.Sprintf("%s v path=%v", c.name, path))
			requireSliceBitEqual(t, c.got.w, c.want.w, fmt.Sprintf("%s w path=%v", c.name, path))
		}
		same := true
		for j := range swapped.w {
			same = same && swapped.w[j] == mlpWant.w[j]
		}
		if same {
			t.Fatalf("path=%v: the gcn coefficients reproduced the mlp loop; the 1-β conventions no longer differ", path)
		}
	}
}

// TestAdamStepBiasCorrectionShortcut pins the steps on both sides of
// the point where C1 = 1−β₁ᵗ first rounds to exactly 1 (t = 356 for
// β₁ = 0.9), where AdamStep stops dividing m by C1: on every path and
// under both callers' conventions, the step must still match the
// reference, which always divides, bit for bit, over operands of every
// awkward class.
func TestAdamStepBiasCorrectionShortcut(t *testing.T) {
	const n = 67 // crosses the four-wide body and the scalar tail
	for _, step := range []int{355, 356} {
		if c1 := 1 - math.Pow(0.9, float64(step)); (c1 == 1) != (step == 356) {
			t.Fatalf("t=%d: C1 = %v; the shortcut's threshold moved", step, c1)
		}
		coefs := []AdamCoef{gcnAdamCoef(step, 0.01), mlpAdamCoef(step, 1e-3, 0.9, 0.999, 1e-8)}
		for _, path := range KernelPaths() {
			for ci := range coefs {
				k := &coefs[ci]
				fill := func(salt int) []float64 {
					s := make([]float64, n)
					for i := range s {
						s[i] = fuzzValue(byte(i*7+salt), i+salt)
					}
					return s
				}
				w, g, m, v := fill(0), fill(1), fill(2), fill(3)
				ww, wm, wv := slices.Clone(w), slices.Clone(m), slices.Clone(v)
				refAdam(ww, g, wm, wv, k)
				WithKernel(path, func() { AdamStep(w, g, m, v, k) })
				label := fmt.Sprintf("t=%d coef=%d path=%v", step, ci, path)
				requireSliceBitEqual(t, m, wm, label+" m")
				requireSliceBitEqual(t, v, wv, label+" v")
				requireSliceBitEqual(t, w, ww, label+" w")
			}
		}
	}
}

func TestAdamStepLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched lengths")
		}
	}()
	k := gcnAdamCoef(1, 0.01)
	AdamStep(make([]float64, 4), make([]float64, 4), make([]float64, 3), make([]float64, 4), &k)
}

// BenchmarkElementwise times the training step's element-wise kernels
// on every path: Adam over a 256×256 weight matrix, early (step 3) and
// late (step 400, where C1 = 1 and the bias-correction divide is
// skipped), and the ReLU, ReLU-gradient, bias and bias-gradient steps
// over one batch-16 MLP hidden layer.
func BenchmarkElementwise(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := benchMatrix(rng, 256, 256, 0)
	g := benchMatrix(rng, 256, 256, 0.5)
	m, v := New(256, 256), New(256, 256)
	act := benchMatrix(rng, 16, 256, 0)
	d := benchMatrix(rng, 16, 256, 0)
	x := New(16, 256)
	bias := benchMatrix(rng, 1, 256, 0).Data
	k := mlpAdamCoef(3, 1e-3, 0.9, 0.999, 1e-8)
	late := mlpAdamCoef(400, 1e-3, 0.9, 0.999, 1e-8)
	for _, path := range KernelPaths() {
		WithKernel(path, func() {
			b.Run(fmt.Sprintf("adam-256x256/path=%v", path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					AdamStep(w.Data, g.Data, m.Data, v.Data, &k)
				}
			})
			b.Run(fmt.Sprintf("adam-late-256x256/path=%v", path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					AdamStep(w.Data, g.Data, m.Data, v.Data, &late)
				}
			})
			b.Run(fmt.Sprintf("relu-16x256/path=%v", path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					x.CopyFrom(act)
					x.ReLUInPlace()
				}
			})
			b.Run(fmt.Sprintf("relugrad-16x256/path=%v", path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.ReLUGradInPlace(act)
				}
			})
			b.Run(fmt.Sprintf("addrowvector-16x256/path=%v", path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					x.AddRowVector(bias)
				}
			})
			b.Run(fmt.Sprintf("colsums-16x256/path=%v", path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.ColSumsInto(bias)
				}
			})
		})
	}
}
