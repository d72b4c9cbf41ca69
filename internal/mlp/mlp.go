// Package mlp is a minimal dense neural network — linear layers with
// ReLU activations, mean-squared-error loss, and Adam optimisation —
// sufficient for GoPIM's execution-time predictor (paper §V-A: a
// three-layer MLP with 10 inputs, 256 hidden neurons, 1 output).
package mlp

import (
	"fmt"
	"math"
	"math/rand"

	"gopim/internal/tensor"
)

// Net is a feed-forward network: Linear → ReLU → … → Linear.
type Net struct {
	// Sizes lists layer widths, e.g. {10, 256, 1}.
	Sizes []int
	// Weights[i] is Sizes[i]×Sizes[i+1]; Biases[i] has Sizes[i+1]
	// entries.
	Weights []*tensor.Matrix
	Biases  [][]float64

	// wT[i] (i ≥ 1) is the scratch Wᵢᵀ the backward pass multiplies
	// deltas by. All of them share one backing array sized for the
	// largest layer, so each is rebuilt just before its one use;
	// backwardWS allocates them on first use, and they then serve every
	// later Fit on the same Net.
	wT []*tensor.Matrix
}

// New constructs a network with Glorot-initialised weights.
// sizes must contain at least an input and an output width.
func New(rng *rand.Rand, sizes ...int) *Net {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("mlp: need ≥ 2 layer sizes, got %v", sizes))
	}
	for _, s := range sizes {
		if s < 1 {
			panic(fmt.Sprintf("mlp: layer size %d must be positive", s))
		}
	}
	n := &Net{Sizes: append([]int(nil), sizes...)}
	for i := 0; i+1 < len(sizes); i++ {
		n.Weights = append(n.Weights, tensor.NewGlorot(rng, sizes[i], sizes[i+1]))
		n.Biases = append(n.Biases, make([]float64, sizes[i+1]))
	}
	return n
}

// Forward runs a batch (rows = samples) through the network.
func (n *Net) Forward(x *tensor.Matrix) *tensor.Matrix {
	ws := newNetWorkspace(n, x.Rows, false)
	return n.forwardWS(ws, x)
}

// netWorkspace owns every matrix one forward/backward pass at a fixed
// batch size touches, so Fit's epoch loop allocates nothing per batch.
// Buffers are valid until the next forward call on the same workspace
// overwrites them; Adam consumes the gradients before that happens.
type netWorkspace struct {
	rows int
	// acts[0] is the input (set per call); acts[i] for i ≥ 1 is the
	// post-activation output of layer i-1 (post-ReLU except the last).
	acts []*tensor.Matrix
	// delta[i] (i ≥ 1) is the loss gradient at the output of layer i-1;
	// backprop walks it from delta[L] down to delta[1]. delta, gw, gb,
	// in and tgt are nil in a forward-only workspace.
	delta []*tensor.Matrix
	gw    []*tensor.Matrix
	gb    [][]float64
	// in/tgt are the mini-batch gather buffers Fit fills row by row.
	in, tgt *tensor.Matrix
}

// newNetWorkspace sizes a workspace for batches of rows samples. A
// forward-only workspace (train false) holds just the activations.
func newNetWorkspace(n *Net, rows int, train bool) *netWorkspace {
	layers := len(n.Weights)
	ws := &netWorkspace{rows: rows, acts: make([]*tensor.Matrix, layers+1)}
	for i := 0; i < layers; i++ {
		ws.acts[i+1] = tensor.New(rows, n.Sizes[i+1])
	}
	if !train {
		return ws
	}
	ws.delta = make([]*tensor.Matrix, layers+1)
	ws.gw = make([]*tensor.Matrix, layers)
	ws.gb = make([][]float64, layers)
	ws.in = tensor.New(rows, n.Sizes[0])
	ws.tgt = tensor.New(rows, n.Sizes[layers])
	for i := 0; i < layers; i++ {
		ws.delta[i+1] = tensor.New(rows, n.Sizes[i+1])
		ws.gw[i] = tensor.New(n.Sizes[i], n.Sizes[i+1])
		ws.gb[i] = make([]float64, n.Sizes[i+1])
	}
	return ws
}

// transposedWeight returns Wᵢᵀ (i ≥ 1) in the shared scratch,
// allocating the scratch on first use. The result is valid until the
// next call.
func (n *Net) transposedWeight(i int) *tensor.Matrix {
	if n.wT == nil {
		size := 0
		for _, w := range n.Weights[1:] {
			size = max(size, w.Rows*w.Cols)
		}
		buf := make([]float64, size)
		n.wT = make([]*tensor.Matrix, len(n.Weights))
		for j, w := range n.Weights[1:] {
			n.wT[j+1] = &tensor.Matrix{Rows: w.Cols, Cols: w.Rows, Data: buf[:w.Rows*w.Cols]}
		}
	}
	tensor.TransposeInto(n.wT[i], n.Weights[i])
	return n.wT[i]
}

// forwardWS runs a batch through the network into workspace buffers
// and returns the output (aliasing ws.acts[last]). Storing the hidden
// activations post-ReLU matches the historic forwardCached exactly:
// backprop's ReLU mask of a post-ReLU activation equals the mask of
// its pre-activation (NaN included).
func (n *Net) forwardWS(ws *netWorkspace, x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != n.Sizes[0] {
		panic(fmt.Sprintf("mlp: input width %d, want %d", x.Cols, n.Sizes[0]))
	}
	if x.Rows != ws.rows {
		panic(fmt.Sprintf("mlp: batch %d rows, workspace sized for %d", x.Rows, ws.rows))
	}
	ws.acts[0] = x
	cur := x
	for i, w := range n.Weights {
		z := ws.acts[i+1]
		tensor.MatMulInto(z, cur, w)
		z.AddRowVector(n.Biases[i])
		if i+1 < len(n.Weights) {
			z.ReLUInPlace()
		}
		cur = z
	}
	return cur
}

// grads holds one backward pass's parameter gradients.
type grads struct {
	w []*tensor.Matrix
	b [][]float64
}

// backwardWS computes MSE-loss gradients for the batch last run
// through forwardWS. The returned gradients alias workspace buffers.
// Every accumulation runs in the historic order; the ReLU-mask step
// multiplies masked entries by zero (never assigns), so signed zeros
// and NaN propagation match MulInPlace(ReLUMask) bit for bit.
func (n *Net) backwardWS(ws *netWorkspace, target *tensor.Matrix) (float64, grads) {
	batch := float64(target.Rows)
	layers := len(n.Weights)
	pred := ws.acts[layers]
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("mlp: target %dx%d vs pred %dx%d", target.Rows, target.Cols, pred.Rows, pred.Cols))
	}
	// dL/dpred for MSE = 2(pred − target)/batch; loss = mean squared
	// error over all entries.
	delta := ws.delta[layers]
	delta.CopyFrom(pred)
	delta.SubInPlace(target)
	var loss float64
	for _, v := range delta.Data {
		loss += float64(v * v)
	}
	loss /= batch * float64(target.Cols)
	delta.ScaleInPlace(2 / (batch * float64(target.Cols)))

	for i := layers - 1; i >= 0; i-- {
		// dW = inᵀ·δ runs through the transpose-fused kernel and
		// dIn = δ·Wᵀ through the plain one on the Wᵀ scratch; either way
		// the per-element accumulation order is the historic
		// transpose-then-multiply one.
		tensor.MatMulTNInto(ws.gw[i], ws.acts[i], delta)
		delta.ColSumsInto(ws.gb[i])
		if i > 0 {
			// Propagate through the previous ReLU.
			tensor.MatMulInto(ws.delta[i], delta, n.transposedWeight(i))
			delta = ws.delta[i]
			delta.ReLUGradInPlace(ws.acts[i])
		}
	}
	return loss, grads{w: ws.gw, b: ws.gb}
}

// Adam is the Adam optimiser state for one Net.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t  int
	mw []*tensor.Matrix
	vw []*tensor.Matrix
	mb [][]float64
	vb [][]float64
}

// NewAdam returns an optimiser with the usual defaults
// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

func (a *Adam) init(n *Net) {
	if a.mw != nil {
		return
	}
	for i := range n.Weights {
		a.mw = append(a.mw, tensor.New(n.Weights[i].Rows, n.Weights[i].Cols))
		a.vw = append(a.vw, tensor.New(n.Weights[i].Rows, n.Weights[i].Cols))
		a.mb = append(a.mb, make([]float64, len(n.Biases[i])))
		a.vb = append(a.vb, make([]float64, len(n.Biases[i])))
	}
}

func (a *Adam) step(n *Net, g grads) {
	a.init(n)
	a.t++
	// 1−β is computed at run time, as the historic loop did; see
	// tensor.AdamCoef for why that differs from a constant 1−β.
	k := tensor.AdamCoef{
		B1: a.Beta1, OneMinusB1: 1 - a.Beta1,
		B2: a.Beta2, OneMinusB2: 1 - a.Beta2,
		C1: 1 - math.Pow(a.Beta1, float64(a.t)),
		C2: 1 - math.Pow(a.Beta2, float64(a.t)),
		LR: a.LR, Eps: a.Eps,
	}
	for i := range n.Weights {
		tensor.AdamStep(n.Weights[i].Data, g.w[i].Data, a.mw[i].Data, a.vw[i].Data, &k)
		tensor.AdamStep(n.Biases[i], g.b[i], a.mb[i], a.vb[i], &k)
	}
}

func (n *Net) trainStepWS(ws *netWorkspace, opt *Adam, x, y *tensor.Matrix) float64 {
	n.forwardWS(ws, x)
	loss, g := n.backwardWS(ws, y)
	opt.step(n, g)
	return loss
}

// Fit trains for epochs over (x, y) in mini-batches of batchSize,
// shuffling sample order with rng each epoch, and returns the final
// epoch's mean loss.
func (n *Net) Fit(rng *rand.Rand, opt *Adam, x, y *tensor.Matrix, epochs, batchSize int) float64 {
	if x.Rows != y.Rows {
		panic(fmt.Sprintf("mlp: %d samples vs %d targets", x.Rows, y.Rows))
	}
	if batchSize < 1 {
		batchSize = x.Rows
	}
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	// At most two batch shapes occur — the full batchSize and one
	// shorter tail — so two workspaces cover the whole run, allocated
	// once here (the tail lazily) and reused every epoch.
	full := newNetWorkspace(n, min(batchSize, x.Rows), true)
	var tail *netWorkspace
	var last float64
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var sum float64
		var batches int
		for s := 0; s < len(idx); s += batchSize {
			e := s + batchSize
			if e > len(idx) {
				e = len(idx)
			}
			ws := full
			if e-s != full.rows {
				if tail == nil {
					tail = newNetWorkspace(n, e-s, true)
				}
				ws = tail
			}
			for r, id := range idx[s:e] {
				ws.in.SetRow(r, x.Row(id))
				ws.tgt.SetRow(r, y.Row(id))
			}
			sum += n.trainStepWS(ws, opt, ws.in, ws.tgt)
			batches++
		}
		last = sum / float64(batches)
	}
	return last
}

// Predict returns the network output for a single sample.
func (n *Net) Predict(sample []float64) []float64 {
	x := tensor.NewFromRows([][]float64{sample})
	out := n.Forward(x)
	return append([]float64(nil), out.Row(0)...)
}
