package tensor

import (
	"fmt"
	"math"
)

// The training step's element-wise hot loops. Each one has a portable
// Go body below and, on amd64 hosts with AVX, a 256-bit assembly body
// (simd_amd64.s). The two are bit-identical: every lane rounds each
// multiply, divide, square root and add on its own, exactly as the Go
// loop does for one element, and no operation is fused. The Go bodies
// round every product explicitly (float64(a*b)) so that no compiler
// can contract a product and a sum into one fused multiply-add, which
// arm64 would otherwise do.

// useAVX selects the assembly bodies. It is fixed at start-up from the
// CPU's feature bits; tests flip it to run both paths.
var useAVX = cpuHasAVX()

// axpy2 computes y[j] = (y[j] + a0·x0[j]) + a1·x1[j] for j < len(y):
// two k-steps of one GEMM row update, each multiply and each add rounded
// on its own. x0 and x1 must be at least len(y) long.
func axpy2(a0, a1 float64, x0, x1, y []float64) {
	if useAVX {
		axpy2AVX(a0, a1, x0, x1, y)
		return
	}
	axpy2Go(a0, a1, x0, x1, y)
}

func axpy2Go(a0, a1 float64, x0, x1, y []float64) {
	x0 = x0[:len(y)]
	x1 = x1[:len(y)]
	for j, bv := range x0 {
		v := y[j] + float64(a0*bv)
		y[j] = v + float64(a1*x1[j])
	}
}

// axpy1 computes y[j] += a·x[j] for j < len(y): the unpaired k-step.
// x must be at least len(y) long.
func axpy1(a float64, x, y []float64) {
	if useAVX {
		axpy1AVX(a, x, y)
		return
	}
	axpy1Go(a, x, y)
}

func axpy1Go(a float64, x, y []float64) {
	x = x[:len(y)]
	for j, bv := range x {
		y[j] += float64(a * bv)
	}
}

// AdamCoef holds the coefficients of one Adam step. The caller supplies
// 1−β₁ and 1−β₂ itself, computed exactly as its historic update loop
// computed them: an untyped constant 1-0.9 folds to 0.1, while a
// runtime 1-beta1 with beta1 = 0.9 gives 0.09999999999999998, and the
// step never derives one from the other. C1 and C2 are the bias
// corrections 1−β₁ᵗ and 1−β₂ᵗ.
type AdamCoef struct {
	B1, OneMinusB1 float64
	B2, OneMinusB2 float64
	C1, C2         float64
	LR, Eps        float64
}

// AdamStep applies one Adam update in place, element by element:
//
//	m = B1·m + OneMinusB1·g
//	v = B2·v + (OneMinusB2·g)·g
//	w = w − (LR·(m/C1)) / (√(v/C2) + Eps)
//
// with every operation rounded on its own in exactly that association.
// All four slices must have the same length.
func AdamStep(w, g, m, v []float64, k *AdamCoef) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AdamStep lengths w=%d g=%d m=%d v=%d", len(w), len(g), len(m), len(v)))
	}
	if useAVX {
		adamStepAVX(w, g, m, v, k)
		return
	}
	adamStepGo(w, g, m, v, k)
}

func adamStepGo(w, g, m, v []float64, k *AdamCoef) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for j, gj := range g {
		mj := float64(k.B1*m[j]) + float64(k.OneMinusB1*gj)
		vj := float64(k.B2*v[j]) + float64(float64(k.OneMinusB2*gj)*gj)
		m[j], v[j] = mj, vj
		w[j] -= float64(k.LR*(mj/k.C1)) / (math.Sqrt(vj/k.C2) + k.Eps)
	}
}

// ReLUInPlace applies max(x, 0) element-wise in place. The predicate
// mirrors ReLU exactly (anything not greater than zero, NaN and −0
// included, becomes +0) so the two paths stay bit-identical.
func (m *Matrix) ReLUInPlace() {
	if useAVX {
		reluAVX(m.Data)
		return
	}
	reluGo(m.Data)
}

func reluGo(x []float64) {
	for i, v := range x {
		if !(v > 0) {
			x[i] = 0
		}
	}
}

// ReLUGradInPlace turns m, a loss gradient at the output of a ReLU,
// into the gradient at its input: entries where act (the ReLU's output
// or input, which share a mask) is not greater than zero are multiplied
// by zero. They are never assigned, so signed zeros and NaN propagate
// exactly as in m.MulInPlace(act.ReLUMask()).
func (m *Matrix) ReLUGradInPlace(act *Matrix) {
	m.sameShape(act, "ReLUGradInPlace")
	if useAVX {
		reluGradAVX(m.Data, act.Data)
		return
	}
	reluGradGo(m.Data, act.Data)
}

func reluGradGo(d, act []float64) {
	act = act[:len(d)]
	for j, av := range act {
		if !(av > 0) {
			d[j] *= 0
		}
	}
}
