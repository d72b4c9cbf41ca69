//go:build !purego

package tensor

// cpuHasAVX reports whether the CPU supports AVX and the OS saves the
// YMM registers across context switches.
func cpuHasAVX() bool

// The AVX bodies of the kernels in simd.go; callers check useAVX first.

//go:noescape
func gemmPanelAVX(vals []float64, offs []int32, b, c []float64)

//go:noescape
func maskedAxpyAVX(s float64, x, y []float64)

//go:noescape
func adamStepAVX(w, g, m, v []float64, k *AdamCoef)

//go:noescape
func reluAVX(x []float64)

//go:noescape
func reluGradAVX(d, act []float64)
