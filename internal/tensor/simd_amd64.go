//go:build !purego

package tensor

// cpuHasAVX reports whether the CPU supports AVX and the OS saves the
// YMM registers across context switches.
func cpuHasAVX() bool

// cpuHasAVX512 reports whether the CPU supports AVX and AVX-512F and
// the OS saves the YMM, opmask and full ZMM registers across context
// switches.
func cpuHasAVX512() bool

// The assembly bodies of the kernels in simd.go; callers check
// kernelPath first.

//go:noescape
func gemmPanelAVX(vals []float64, offs []int32, b, c []float64)

//go:noescape
func gemmPanelAVX512(vals []float64, offs []int32, b, c []float64)

//go:noescape
func gemmQuadAVX512(vals []float64, ldv int, offs []int32, b, c []float64, ldc int)

//go:noescape
func maskedAxpyAVX(s float64, x, y []float64)

//go:noescape
func adamStepAVX(w, g, m, v []float64, k *AdamCoef)

//go:noescape
func reluAVX(x []float64)

//go:noescape
func reluGradAVX(d, act []float64)
