//go:build !amd64 || purego

package tensor

// Without the amd64 assembly, the kernel path is always Portable and
// the kernels run their Go bodies; the assembly entry points are never
// called.

func cpuHasAVX() bool    { return false }
func cpuHasAVX512() bool { return false }

func gemmPanelAVX(vals []float64, offs []int32, b, c []float64)    { panic(noAsm) }
func gemmPanelAVX512(vals []float64, offs []int32, b, c []float64) { panic(noAsm) }
func gemmQuadAVX512(vals []float64, ldv int, offs []int32, b, c []float64, ldc int) {
	panic(noAsm)
}
func maskedAxpyAVX(s float64, x, y []float64)       { panic(noAsm) }
func adamStepAVX(w, g, m, v []float64, k *AdamCoef) { panic(noAsm) }
func reluAVX(x []float64)                           { panic(noAsm) }
func reluGradAVX(d, act []float64)                  { panic(noAsm) }

const noAsm = "tensor: assembly kernel called in a build without assembly"
