package tensor

import (
	"fmt"
	"math"
)

// The training step's element-wise hot loops, the transpose and the
// GEMM panel and column kernels. Each one has a portable Go body below
// and, on amd64 hosts with AVX, a 256-bit assembly body (simd_amd64.s);
// on hosts with AVX-512 the panel kernels and the transpose run 512-bit
// bodies instead. All of them are bit-identical: every lane
// rounds each multiply, divide, square root and add on its own, exactly
// as the Go loop does for one element, and no operation is fused. The
// Go bodies round every product explicitly (float64(a*b)) so that no
// compiler can contract a product and a sum into one fused
// multiply-add, which arm64 would otherwise do.

// KernelPath names one set of kernel bodies. Each path includes the
// ones before it: a host that has AVX-512 has AVX too.
type KernelPath uint8

const (
	// Portable runs the Go loops, on every architecture.
	Portable KernelPath = iota
	// AVX runs the 256-bit assembly bodies.
	AVX
	// AVX512 runs the GEMM panel kernels and the transpose on 512-bit
	// bodies, and the other kernels on the AVX ones.
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

// gemvColumns adds the masked products of one column product into y:
// for each k in ascending order, y[j] += x[k·ldx+j]·s[k] for j < len(y)
// where x[k·ldx+j] is not ±0 (a NaN counts as nonzero), leaving y[j]
// alone where it is. Row k of x is column k of the product's a, so
// every y[j] receives the GEMM's zero-skipped k-ascending sum. When s
// is not empty, x must hold (len(s)−1)·ldx + len(y) elements.
func gemvColumns(x []float64, ldx int, s, y []float64) {
	if len(s) == 0 || len(y) == 0 {
		return
	}
	// The assembly body does not bounds-check, so check here.
	_ = x[(len(s)-1)*ldx+len(y)-1]
	if kernelPath >= AVX {
		gemvColumnsAVX(x, ldx, s, y)
		return
	}
	gemvColumnsGo(x, ldx, s, y)
}

func gemvColumnsGo(x []float64, ldx int, s, y []float64) {
	for k, sk := range s {
		for j, xv := range x[k*ldx:][:len(y)] {
			if xv != 0 {
				y[j] += float64(xv * sk)
			}
		}
	}
}

// addTo computes y[j] += x[j] for j < len(y), each add rounded on its
// own. x must be at least len(y) long.
func addTo(y, x []float64) {
	x = x[:len(y)]
	if kernelPath >= AVX {
		addToAVX(y, x)
		return
	}
	for j, xv := range x {
		y[j] += xv
	}
}

// transpose writes the rows×cols block of src whose rows start lds
// elements apart into dst transposed, dst[c·ldd+r] = src[r·lds+c]. The
// assembly copies the largest block whose sides are multiples of its
// tile edge: 8 on AVX-512 hosts when both sides reach 8, else 4 on AVX
// ones. The Go loop copies the rest, the columns on the right and the
// rows at the bottom, and everything on the portable path. A copy is
// exact, so the split cannot change a bit.
func transpose(dst []float64, ldd int, src []float64, lds, rows, cols int) {
	if rows == 0 || cols == 0 {
		return
	}
	// The assembly bodies do not bounds-check, so check here.
	_, _ = src[(rows-1)*lds+cols-1], dst[(cols-1)*ldd+rows-1]
	// The assembly copies rows [0, ra) × columns [0, ca).
	ra, ca := 0, cols
	switch {
	case kernelPath == AVX512 && rows >= 8 && cols >= 8:
		ra, ca = rows&^7, cols&^7
		transposeAVX512(dst, ldd, src, lds, ra, ca)
	case kernelPath >= AVX && rows >= 4 && cols >= 4:
		ra, ca = rows&^3, cols&^3
		transposeAVX(dst, ldd, src, lds, ra, ca)
	}
	if ca < cols {
		transposeGo(dst[ca*ldd:], ldd, src[ca:], lds, ra, cols-ca)
	}
	if ra < rows {
		transposeGo(dst[ra:], ldd, src[ra*lds:], lds, rows-ra, cols)
	}
}

// transposeTile is the edge of the square tiles transposeGo copies one
// at a time: a 16×16 float64 tile of src and of dst (2 KiB each) stays
// in L1, so neither side is streamed with a cache-missing stride.
const transposeTile = 16

// transposeGo is the Go body of transpose.
func transposeGo(dst []float64, ldd int, src []float64, lds, rows, cols int) {
	for r0 := 0; r0 < rows; r0 += transposeTile {
		r1 := min(r0+transposeTile, rows)
		for c0 := 0; c0 < cols; c0 += transposeTile {
			c1 := min(c0+transposeTile, cols)
			r := r0
			// Four source rows per pass, so each dst row gets four
			// contiguous elements per store group.
			for ; r+4 <= r1; r += 4 {
				s0 := src[r*lds+c0 : r*lds+c1]
				s1 := src[(r+1)*lds+c0 : (r+1)*lds+c1]
				s2 := src[(r+2)*lds+c0 : (r+2)*lds+c1]
				s3 := src[(r+3)*lds+c0 : (r+3)*lds+c1]
				for c := range s0 {
					d := dst[(c0+c)*ldd+r : (c0+c)*ldd+r+4]
					d[0], d[1], d[2], d[3] = s0[c], s1[c], s2[c], s3[c]
				}
			}
			for ; r < r1; r++ {
				for c, v := range src[r*lds+c0 : r*lds+c1] {
					dst[(c0+c)*ldd+r] = v
				}
			}
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
