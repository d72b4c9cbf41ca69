package mlp

import (
	"math"
	"math/rand"
	"testing"

	"gopim/internal/tensor"
)

func TestNewShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := New(rng, 10, 256, 1)
	if len(n.Weights) != 2 || len(n.Biases) != 2 {
		t.Fatalf("%d weight and %d bias layers, want 2", len(n.Weights), len(n.Biases))
	}
	if n.Weights[0].Rows != 10 || n.Weights[0].Cols != 256 {
		t.Fatalf("W0 shape %dx%d", n.Weights[0].Rows, n.Weights[0].Cols)
	}
	if n.Weights[1].Rows != 256 || n.Weights[1].Cols != 1 {
		t.Fatalf("W1 shape %dx%d", n.Weights[1].Rows, n.Weights[1].Cols)
	}
	if len(n.Biases[0]) != 256 || len(n.Biases[1]) != 1 {
		t.Fatal("bias shapes wrong")
	}
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range []func(){
		func() { New(rng, 10) },
		func() { New(rng, 10, 0) },
		func() { New(rng, -1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestForwardShapeAndInputCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := New(rng, 4, 8, 2)
	x := tensor.NewRandom(rng, 5, 4, 1)
	out := n.Forward(x)
	if out.Rows != 5 || out.Cols != 2 {
		t.Fatalf("output shape %dx%d, want 5x2", out.Rows, out.Cols)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input width")
		}
	}()
	n.Forward(tensor.New(5, 3))
}

// Gradient check: numerical vs analytic gradients on tiny networks, one
// with a single hidden layer and one with three (whose backward pass
// reuses the shared Wᵀ scratch layer after layer).
func TestGradientsMatchNumerical(t *testing.T) {
	for _, sizes := range [][]int{{3, 4, 2}, {3, 4, 5, 3, 2}} {
		rng := rand.New(rand.NewSource(3))
		n := New(rng, sizes...)
		x := tensor.NewRandom(rng, 6, 3, 1)
		y := tensor.NewRandom(rng, 6, 2, 1)

		ws := newNetWorkspace(n, x.Rows, true)
		n.forwardWS(ws, x)
		_, g := n.backwardWS(ws, y)

		loss := func() float64 {
			pred := n.Forward(x)
			var s float64
			for i, v := range pred.Data {
				d := v - y.Data[i]
				s += d * d
			}
			return s / float64(y.Rows*y.Cols)
		}

		const h = 1e-6
		for li := range n.Weights {
			for j := 0; j < len(n.Weights[li].Data); j += 3 { // sample every 3rd weight
				orig := n.Weights[li].Data[j]
				n.Weights[li].Data[j] = orig + h
				lp := loss()
				n.Weights[li].Data[j] = orig - h
				lm := loss()
				n.Weights[li].Data[j] = orig
				num := (lp - lm) / (2 * h)
				ana := g.w[li].Data[j]
				if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
					t.Fatalf("%v layer %d weight %d: numeric %v vs analytic %v", sizes, li, j, num, ana)
				}
			}
			for j := range n.Biases[li] {
				orig := n.Biases[li][j]
				n.Biases[li][j] = orig + h
				lp := loss()
				n.Biases[li][j] = orig - h
				lm := loss()
				n.Biases[li][j] = orig
				num := (lp - lm) / (2 * h)
				if math.Abs(num-g.b[li][j]) > 1e-4*(1+math.Abs(num)) {
					t.Fatalf("%v layer %d bias %d: numeric %v vs analytic %v", sizes, li, j, num, g.b[li][j])
				}
			}
		}
	}
}

// The network must be able to fit a simple nonlinear function.
func TestFitLearnsQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const samples = 256
	x := tensor.New(samples, 1)
	y := tensor.New(samples, 1)
	for i := 0; i < samples; i++ {
		v := rng.Float64()*2 - 1
		x.Set(i, 0, v)
		y.Set(i, 0, v*v)
	}
	n := New(rng, 1, 32, 1)
	opt := NewAdam(0.01)
	loss := n.Fit(rng, opt, x, y, 300, 32)
	if loss > 0.002 {
		t.Fatalf("final loss = %v, want < 0.002 (should fit x²)", loss)
	}
	// Spot-check a prediction.
	if got := n.Predict([]float64{0.5})[0]; math.Abs(got-0.25) > 0.1 {
		t.Fatalf("Predict(0.5) = %v, want ≈0.25", got)
	}
}

func TestTrainStepReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := New(rng, 2, 16, 1)
	opt := NewAdam(0.01)
	x := tensor.NewRandom(rng, 64, 2, 1)
	y := tensor.New(64, 1)
	for i := 0; i < 64; i++ {
		y.Set(i, 0, x.At(i, 0)+2*x.At(i, 1))
	}
	// One full-batch epoch is one step; Fit returns its pre-update loss.
	first := n.Fit(rng, opt, x, y, 1, 64)
	var last float64
	for i := 0; i < 200; i++ {
		last = n.Fit(rng, opt, x, y, 1, 64)
	}
	if last >= first/4 {
		t.Fatalf("loss %v → %v: training not converging", first, last)
	}
}

func TestFitValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := New(rng, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched sample counts")
		}
	}()
	n.Fit(rng, NewAdam(0.01), tensor.New(3, 2), tensor.New(4, 1), 1, 2)
}

func TestDeterministicWithSeed(t *testing.T) {
	build := func() *Net {
		rng := rand.New(rand.NewSource(7))
		n := New(rng, 2, 8, 1)
		x := tensor.NewRandom(rng, 32, 2, 1)
		y := tensor.NewRandom(rng, 32, 1, 1)
		n.Fit(rng, NewAdam(0.005), x, y, 10, 8)
		return n
	}
	a, b := build(), build()
	for i := range a.Weights {
		if !a.Weights[i].Equal(b.Weights[i], 0) {
			t.Fatal("training must be deterministic for a fixed seed")
		}
	}
}
