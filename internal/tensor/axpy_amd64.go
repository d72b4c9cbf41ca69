//go:build !purego

package tensor

// axpy2 computes y[j] = (y[j] + a0·x0[j]) + a1·x1[j] for j < len(y):
// two k-steps of one GEMM row update, each multiply and each add rounded
// on its own. x0 and x1 must be at least len(y) long.
//
//go:noescape
func axpy2(a0, a1 float64, x0, x1, y []float64)

// axpy1 computes y[j] += a·x[j] for j < len(y): the unpaired k-step.
// x must be at least len(y) long.
//
//go:noescape
func axpy1(a float64, x, y []float64)
