package gcn

import (
	"math"
	"math/rand"
	"testing"

	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/parallel"
	"gopim/internal/sparsemat"
	"gopim/internal/tensor"
)

// smallNodeInstance builds a small, easy node-classification instance.
func smallNodeInstance(t *testing.T, n int) *graphgen.Instance {
	t.Helper()
	d, err := graphgen.ByName("arxiv")
	if err != nil {
		t.Fatal(err)
	}
	d.HiddenCh = 32
	d.FeatureDim = 16
	d.NumClasses = 4
	d.Layers = 2
	return d.Synthesize(3, n)
}

func TestTrainNodeClassification(t *testing.T) {
	inst := smallNodeInstance(t, 400)
	res := Train(inst, Config{Epochs: 40, Seed: 1, LR: 0.01})
	if res.Accuracy < 0.6 {
		t.Fatalf("accuracy = %v, want > 0.6 on an easy synthetic task", res.Accuracy)
	}
	if len(res.TrainLoss) != 40 {
		t.Fatalf("loss history length %d", len(res.TrainLoss))
	}
	first, last := res.TrainLoss[0], res.TrainLoss[len(res.TrainLoss)-1]
	if last >= first {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
	if res.UpdatedRowFraction != 1 {
		t.Fatalf("without a plan every row updates: %v", res.UpdatedRowFraction)
	}
}

func TestTrainLinkPrediction(t *testing.T) {
	d, err := graphgen.ByName("ddi")
	if err != nil {
		t.Fatal(err)
	}
	d.HiddenCh = 32
	d.OutputCh = 32
	d.FeatureDim = 16
	inst := d.Synthesize(5, 300)
	res := Train(inst, Config{Epochs: 30, Seed: 2, LR: 0.01, Dropout: 0})
	if res.Accuracy < 0.6 {
		t.Fatalf("link ranking accuracy = %v, want > 0.6", res.Accuracy)
	}
}

func TestISUReducesWritesKeepsAccuracy(t *testing.T) {
	inst := smallNodeInstance(t, 400)
	degs := make([]float64, inst.Graph.N)
	for v := range degs {
		degs[v] = float64(inst.Graph.Degree(v))
	}
	vanilla := Train(inst, Config{Epochs: 40, Seed: 1, LR: 0.01})
	plan := mapping.NewUpdatePlan(degs, 0.5, 20)
	isu := Train(inst, Config{Epochs: 40, Seed: 1, LR: 0.01, Plan: plan})

	if isu.UpdatedRowFraction >= 0.9*vanilla.UpdatedRowFraction {
		t.Fatalf("ISU updated-row fraction %v should be well below vanilla %v",
			isu.UpdatedRowFraction, vanilla.UpdatedRowFraction)
	}
	// Paper Table V: accuracy impact within a few points either way.
	if math.Abs(isu.Accuracy-vanilla.Accuracy) > 0.12 {
		t.Fatalf("ISU accuracy %v strays too far from vanilla %v", isu.Accuracy, vanilla.Accuracy)
	}
}

// Accuracy should degrade monotonically-ish as θ shrinks toward 0 —
// the shape of paper Fig. 16. Check the extremes.
func TestThetaExtremes(t *testing.T) {
	inst := smallNodeInstance(t, 400)
	degs := make([]float64, inst.Graph.N)
	for v := range degs {
		degs[v] = float64(inst.Graph.Degree(v))
	}
	run := func(theta float64) float64 {
		plan := mapping.NewUpdatePlan(degs, theta, 20)
		return Train(inst, Config{Epochs: 40, Seed: 1, LR: 0.01, Plan: plan}).Accuracy
	}
	high := run(0.9)
	low := run(0.05)
	if high < low-0.05 {
		t.Fatalf("θ=0.9 accuracy %v should not trail θ=0.05 accuracy %v", high, low)
	}
}

func TestTrainValidation(t *testing.T) {
	inst := smallNodeInstance(t, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero epochs")
		}
	}()
	Train(inst, Config{Epochs: 0})
}

// TestTrainDeterministicAcrossWorkers pins the workspace-reusing Train
// path to byte-identical results at 1, 2 and 8 workers — the blocked
// GEMM, the Âᵀ-CSR backward aggregation, and every buffer reuse must
// preserve the exact serial accumulation order. Loss histories are
// compared as float bits, not approximately.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	inst := smallNodeInstance(t, 300)
	run := func() Result {
		return Train(inst, Config{Epochs: 12, Seed: 3, LR: 0.01})
	}
	parallel.SetWorkers(1)
	base := run()
	defer parallel.SetWorkers(0)
	for _, w := range []int{2, 8} {
		parallel.SetWorkers(w)
		got := run()
		if got.Accuracy != base.Accuracy {
			t.Fatalf("workers=%d: accuracy %v vs serial %v", w, got.Accuracy, base.Accuracy)
		}
		if got.UpdatedRowFraction != base.UpdatedRowFraction {
			t.Fatalf("workers=%d: updated-row fraction differs", w)
		}
		for i := range base.TrainLoss {
			if math.Float64bits(got.TrainLoss[i]) != math.Float64bits(base.TrainLoss[i]) {
				t.Fatalf("workers=%d: epoch %d loss %v vs serial %v",
					w, i, got.TrainLoss[i], base.TrainLoss[i])
			}
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	inst := smallNodeInstance(t, 200)
	a := Train(inst, Config{Epochs: 10, Seed: 9, LR: 0.01})
	b := Train(inst, Config{Epochs: 10, Seed: 9, LR: 0.01})
	if a.Accuracy != b.Accuracy {
		t.Fatalf("same seed must reproduce: %v vs %v", a.Accuracy, b.Accuracy)
	}
	for i := range a.TrainLoss {
		if a.TrainLoss[i] != b.TrainLoss[i] {
			t.Fatal("loss history must reproduce")
		}
	}
}

// Numerical gradient check of the full backward pass on a tiny graph.
func TestBackwardMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graphgen.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	adj := g.Adj().SymNormalized()
	x := tensor.NewRandom(rng, 5, 3, 1)
	weights := []*tensor.Matrix{
		tensor.NewRandom(rng, 3, 4, 0.5),
		tensor.NewRandom(rng, 4, 2, 0.5),
	}
	labels := []int{0, 1, 0, 1, 0}
	mask := []bool{true, true, true, true, true}
	written := make([]*tensor.Matrix, 2)

	lossOf := func() float64 {
		fw := forward(adj, x, weights, written, nil, 0, 0, rng)
		loss, _ := nodeLossGrad(fw.out, labels, mask)
		return loss
	}
	fw := forward(adj, x, weights, written, nil, 0, 0, rng)
	_, dOut := nodeLossGrad(fw.out, labels, mask)
	grads := backward(adj, fw, weights, dOut)

	const h = 1e-6
	for l := range weights {
		for j := 0; j < len(weights[l].Data); j += 2 {
			orig := weights[l].Data[j]
			weights[l].Data[j] = orig + h
			lp := lossOf()
			weights[l].Data[j] = orig - h
			lm := lossOf()
			weights[l].Data[j] = orig
			num := (lp - lm) / (2 * h)
			ana := grads[l].Data[j]
			if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d weight %d: numeric %v vs analytic %v", l, j, num, ana)
			}
		}
	}
}

func TestNodeLossGradProperties(t *testing.T) {
	logits := tensor.NewFromRows([][]float64{{2, 0}, {0, 2}, {1, 1}})
	labels := []int{0, 1, 0}
	mask := []bool{true, true, false}
	loss, grad := nodeLossGrad(logits, labels, mask)
	if loss <= 0 {
		t.Fatalf("loss = %v, want positive", loss)
	}
	// Masked vertex gets zero gradient.
	for _, v := range grad.Row(2) {
		if v != 0 {
			t.Fatal("masked vertex must not contribute gradient")
		}
	}
	// Gradient rows sum to ~0 (softmax property).
	for r := 0; r < 2; r++ {
		var s float64
		for _, v := range grad.Row(r) {
			s += v
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("row %d gradient sums to %v", r, s)
		}
	}
	// Empty mask → zero loss and gradient.
	l0, g0 := nodeLossGrad(logits, labels, []bool{false, false, false})
	if l0 != 0 || g0.MaxAbs() != 0 {
		t.Fatal("empty mask should produce zero loss/grad")
	}
}

func TestNodeAccuracy(t *testing.T) {
	logits := tensor.NewFromRows([][]float64{{2, 0}, {0, 2}, {2, 0}})
	labels := []int{0, 1, 1}
	acc := nodeAccuracy(logits, labels, []bool{true, true, true})
	if math.Abs(acc-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %v, want 2/3", acc)
	}
	if nodeAccuracy(logits, labels, []bool{false, false, false}) != 0 {
		t.Fatal("empty test mask → 0")
	}
}

func TestLinkAccuracy(t *testing.T) {
	emb := tensor.NewFromRows([][]float64{{1, 0}, {1, 0}, {0, 1}, {-1, 0}})
	// pos (0,1) scores 1; neg (0,3) scores −1 → win.
	// pos (0,2) scores 0; neg (0,1) scores 1 → loss.
	acc := linkAccuracy(emb, [][2]int{{0, 1}, {0, 2}}, [][2]int{{0, 3}, {0, 1}})
	if math.Abs(acc-0.5) > 1e-12 {
		t.Fatalf("link accuracy = %v, want 0.5", acc)
	}
	if linkAccuracy(emb, nil, nil) != 0 {
		t.Fatal("empty evaluation → 0")
	}
}

func TestStaleWrittenRowsActuallyStale(t *testing.T) {
	// With θ such that vertex 0 is unimportant and a long stale period,
	// the written row for vertex 0 must stay at its epoch-0 value.
	rng := rand.New(rand.NewSource(5))
	g := graphgen.FromEdges(3, [][2]int{{1, 2}}) // vertex 0 isolated, degree 0
	adj := g.Adj().SymNormalized()
	x := tensor.NewRandom(rng, 3, 2, 1)
	weights := []*tensor.Matrix{tensor.NewRandom(rng, 2, 2, 1)}
	written := make([]*tensor.Matrix, 1)
	plan := mapping.NewUpdatePlan([]float64{0, 5, 5}, 0.67, 10)

	forward(adj, x, weights, written, plan, 0, 0, rng) // refresh epoch
	row0 := append([]float64(nil), written[0].Row(0)...)

	weights[0].ScaleInPlace(2) // change the weights
	forward(adj, x, weights, written, plan, 1, 0, rng)
	for i, v := range written[0].Row(0) {
		if v != row0[i] {
			t.Fatal("unimportant vertex row must stay stale between refreshes")
		}
	}
	// Important vertex rows must be fresh.
	freshC := tensor.MatMul(x, weights[0])
	for i, v := range written[0].Row(1) {
		if math.Abs(v-freshC.At(1, i)) > 1e-12 {
			t.Fatal("important vertex row must be rewritten every epoch")
		}
	}
}

func TestSymNormalizedIntegration(t *testing.T) {
	// End-to-end smoke test that training works directly on a CSR
	// produced by graphgen, which is the path Train takes internally.
	g := graphgen.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	var _ *sparsemat.CSR = g.Adj().SymNormalized()
}

// Write-time quantisation at the chip's 16-bit precision must be
// accuracy-neutral; crushing precision to 3 bits must not be.
func TestQuantization(t *testing.T) {
	inst := smallNodeInstance(t, 400)
	full := Train(inst, Config{Epochs: 30, Seed: 1, LR: 0.01})
	q16 := Train(inst, Config{Epochs: 30, Seed: 1, LR: 0.01, QuantBits: 16})
	if math.Abs(q16.Accuracy-full.Accuracy) > 0.05 {
		t.Fatalf("16-bit quantisation moved accuracy too much: %v vs %v", q16.Accuracy, full.Accuracy)
	}
	q3 := Train(inst, Config{Epochs: 30, Seed: 1, LR: 0.01, QuantBits: 3})
	if q3.Accuracy > full.Accuracy {
		t.Logf("3-bit run unexpectedly matched float accuracy (%v vs %v)", q3.Accuracy, full.Accuracy)
	}
	// The quantised runs must be deterministic too.
	again := Train(inst, Config{Epochs: 30, Seed: 1, LR: 0.01, QuantBits: 16})
	if again.Accuracy != q16.Accuracy {
		t.Fatal("quantised training must be deterministic")
	}
}

// forward runs one unquantised forward pass on a transient workspace,
// so successive calls return independently owned states (the
// staleness tests compare two forward passes side by side).
func forward(adj *sparsemat.CSR, x *tensor.Matrix, weights []*tensor.Matrix,
	written []*tensor.Matrix, plan *mapping.UpdatePlan, epoch int,
	dropout float64, rng *rand.Rand) *forwardState {
	ws := newWorkspace(adj, nil, x.Rows, layerDims(x, weights))
	return ws.forwardQuant(x, weights, written, plan, epoch, dropout, rng, 0)
}

// layerDims reconstructs the width vector from an input matrix and the
// weight stack (used by forward).
func layerDims(x *tensor.Matrix, weights []*tensor.Matrix) []int {
	dims := make([]int, 0, len(weights)+1)
	dims = append(dims, x.Cols)
	for _, w := range weights {
		dims = append(dims, w.Cols)
	}
	return dims
}

// backward runs backprop for a forward pass; fw carries its owning
// workspace, and a missing Âᵀ (forward built the workspace without
// one) is filled in here.
func backward(adj *sparsemat.CSR, fw *forwardState, weights []*tensor.Matrix, dOut *tensor.Matrix) []*tensor.Matrix {
	ws := fw.ws
	if ws.adjT == nil {
		ws.adjT = adj.Transpose()
	}
	return ws.backward(fw, weights, dOut)
}

// nodeLossGrad is nodeLossGradInto on freshly allocated scratch.
func nodeLossGrad(logits *tensor.Matrix, labels []int, trainMask []bool) (float64, *tensor.Matrix) {
	probs := tensor.New(logits.Rows, logits.Cols)
	grad := tensor.New(logits.Rows, logits.Cols)
	loss := nodeLossGradInto(probs, grad, logits, labels, trainMask)
	return loss, grad
}
