package tensor

import (
	"fmt"
	"math"
)

// The training step's element-wise hot loops and the GEMM panel
// kernel. Each one has a portable Go body below and, on amd64 hosts
// with AVX, a 256-bit assembly body (simd_amd64.s); on hosts with
// AVX-512 the panel kernel runs 512-bit bodies instead. All of them
// are bit-identical: every lane rounds each multiply, divide, square
// root and add on its own, exactly as the Go loop does for one element,
// and no operation is fused. The Go bodies round every product
// explicitly (float64(a*b)) so that no compiler can contract a product
// and a sum into one fused multiply-add, which arm64 would otherwise
// do.

// KernelPath names one set of kernel bodies. Each path includes the
// ones before it: a host that has AVX-512 has AVX too.
type KernelPath uint8

const (
	// Portable runs the Go loops, on every architecture.
	Portable KernelPath = iota
	// AVX runs the 256-bit assembly bodies.
	AVX
	// AVX512 runs the GEMM panel kernel on 512-bit bodies, and the
	// element-wise kernels on the AVX ones.
	AVX512
)

func (p KernelPath) String() string {
	return [...]string{"portable", "avx", "avx512"}[p]
}

// hostPath is the widest path this build can run on this host, fixed
// at start-up from the CPU's feature bits; kernelPath, the path the
// kernels take, starts there and only tests change it.
var (
	hostPath   = detectKernelPath()
	kernelPath = hostPath
)

func detectKernelPath() KernelPath {
	switch {
	case cpuHasAVX512():
		return AVX512
	case cpuHasAVX():
		return AVX
	}
	return Portable
}

// KernelPaths lists the kernel paths this build can run on this host,
// starting with Portable, which every host has. Tests of packages built
// on these kernels loop over it with WithKernel to pin their results
// on every path.
func KernelPaths() []KernelPath {
	return []KernelPath{Portable, AVX, AVX512}[:hostPath+1]
}

// WithKernel runs f on kernel path p (or the widest path the host has,
// if that is narrower), then restores the previous selection. It must
// not overlap any other use of the package's kernels.
func WithKernel(p KernelPath, f func()) {
	defer func(old KernelPath) { kernelPath = old }(kernelPath)
	kernelPath = min(p, hostPath)
	f()
}

// gemmPanel adds one list of nonzero a entries into one dst row
// segment c: for each entry e in order, c[j] += vals[e]·b[offs[e]+j]
// for j < len(c), each multiply and each add rounded on its own. Every
// b[offs[e]:][:len(c)] must lie inside b, and len(offs) ≥ len(vals).
func gemmPanel(vals []float64, offs []int32, b, c []float64) {
	switch kernelPath {
	case AVX512:
		gemmPanelAVX512(vals, offs, b, c)
	case AVX:
		gemmPanelAVX(vals, offs, b, c)
	default:
		gemmPanelGo(vals, offs, b, c)
	}
}

// gemmQuad is gemmPanel for four rows whose lists share one offset
// list, offs: row q's values are vals[q·ldv:][:len(offs)] and its dst
// segment is c[q·ldc:][:gemmPanelCols]. Every b[offs[e]:][:gemmPanelCols]
// must lie inside b. The AVX-512 body loads each b vector once for all
// four rows; the other paths run the rows one at a time.
func gemmQuad(vals []float64, ldv int, offs []int32, b, c []float64, ldc int) {
	if kernelPath == AVX512 {
		gemmQuadAVX512(vals, ldv, offs, b, c, ldc)
		return
	}
	for q := range 4 {
		gemmPanel(vals[q*ldv:][:len(offs)], offs, b, c[q*ldc:][:gemmPanelCols])
	}
}

func gemmPanelGo(vals []float64, offs []int32, b, c []float64) {
	offs = offs[:len(vals)]
	for e, v := range vals {
		for j, bv := range b[offs[e]:][:len(c)] {
			c[j] += float64(v * bv)
		}
	}
}

// maskedAxpy computes y[j] += x[j]·s for j < len(y) where x[j] is not
// ±0 (a NaN counts as nonzero) and leaves y[j] alone where it is: one
// k-step of a GEMM column with the kernel's zero-skip. x must be at
// least len(y) long.
func maskedAxpy(s float64, x, y []float64) {
	if kernelPath >= AVX {
		maskedAxpyAVX(s, x, y)
		return
	}
	maskedAxpyGo(s, x, y)
}

func maskedAxpyGo(s float64, x, y []float64) {
	x = x[:len(y)]
	for j, xv := range x {
		if xv != 0 {
			y[j] += float64(xv * s)
		}
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
// All four slices must have the same length. Once the step count is
// high enough that C1 rounds to exactly 1 (t ≥ 356 for β₁ = 0.9), m/C1
// is m bit for bit — ±0, subnormals, ±Inf and NaN included — so both
// bodies skip that divide.
func AdamStep(w, g, m, v []float64, k *AdamCoef) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AdamStep lengths w=%d g=%d m=%d v=%d", len(w), len(g), len(m), len(v)))
	}
	if kernelPath >= AVX {
		adamStepAVX(w, g, m, v, k)
		return
	}
	adamStepGo(w, g, m, v, k)
}

func adamStepGo(w, g, m, v []float64, k *AdamCoef) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	unbiased := k.C1 == 1
	for j, gj := range g {
		mj := float64(k.B1*m[j]) + float64(k.OneMinusB1*gj)
		vj := float64(k.B2*v[j]) + float64(float64(k.OneMinusB2*gj)*gj)
		m[j], v[j] = mj, vj
		mh := mj
		if !unbiased {
			mh = mj / k.C1
		}
		w[j] -= float64(k.LR*mh) / (math.Sqrt(vj/k.C2) + k.Eps)
	}
}

// ReLUInPlace applies max(x, 0) element-wise in place: anything not
// greater than zero, NaN and −0 included, becomes +0, on every path.
func (m *Matrix) ReLUInPlace() {
	if kernelPath >= AVX {
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
// exactly as multiplying m by a 0/1 mask of act > 0 would.
func (m *Matrix) ReLUGradInPlace(act *Matrix) {
	m.sameShape(act, "ReLUGradInPlace")
	if kernelPath >= AVX {
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
