//go:build !amd64 || purego

package tensor

// Without the amd64 assembly, useAVX is always false and the kernels
// run their portable Go bodies; the AVX entry points are never called.

func cpuHasAVX() bool { return false }

func gemmPanelAVX(vals []float64, offs []int32, b, c []float64) { panic(noAVX) }
func maskedAxpyAVX(s float64, x, y []float64)                   { panic(noAVX) }
func adamStepAVX(w, g, m, v []float64, k *AdamCoef)             { panic(noAVX) }
func reluAVX(x []float64)                                       { panic(noAVX) }
func reluGradAVX(d, act []float64)                              { panic(noAVX) }

const noAVX = "tensor: AVX kernel called in a build without assembly"
