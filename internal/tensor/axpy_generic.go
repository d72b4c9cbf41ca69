//go:build !amd64 || purego

package tensor

// axpy2 computes y[j] = (y[j] + a0·x0[j]) + a1·x1[j] for j < len(y):
// two k-steps of one GEMM row update, each multiply and each add rounded
// on its own. x0 and x1 must be at least len(y) long.
func axpy2(a0, a1 float64, x0, x1, y []float64) {
	x0 = x0[:len(y)]
	x1 = x1[:len(y)]
	for j, bv := range x0 {
		v := y[j] + a0*bv
		y[j] = v + a1*x1[j]
	}
}

// axpy1 computes y[j] += a·x[j] for j < len(y): the unpaired k-step.
// x must be at least len(y) long.
func axpy1(a float64, x, y []float64) {
	x = x[:len(y)]
	for j, bv := range x {
		y[j] += a * bv
	}
}
