package predictor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gopim/internal/mlp"
	"gopim/internal/tensor"
)

// Regressor is a single-output regression model. Implementations
// mirror the scikit-learn families the paper benchmarks in Fig. 9.
type Regressor interface {
	// Fit trains on rows X with targets y.
	Fit(X [][]float64, y []float64)
	// Predict returns the model output for one row.
	Predict(x []float64) float64
}

// ---------------------------------------------------------------------------
// Standardisation helper shared by the numeric models.

type scaler struct {
	mean, std []float64
}

func fitScaler(X [][]float64) *scaler {
	if len(X) == 0 {
		return &scaler{}
	}
	d := len(X[0])
	s := &scaler{mean: make([]float64, d), std: make([]float64, d)}
	for _, row := range X {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= float64(len(X))
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / float64(len(X)))
		if s.std[j] == 0 {
			s.std[j] = 1
		}
	}
	return s
}

func (s *scaler) apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.mean[j]) / s.std[j]
	}
	return out
}

// ---------------------------------------------------------------------------
// Linear least squares ("LR") and Bayesian ridge ("BR").

// Linear is ridge-regularised linear least squares, solved by Gaussian
// elimination on the normal equations. With Lambda ≈ 0 it is ordinary
// least squares (the paper's "LR" baseline); with Lambda = 1 it is the
// ridge/Bayesian-ridge family ("BR").
type Linear struct {
	Lambda float64

	scale *scaler
	w     []float64 // weights, last entry is the intercept
}

// NewLinear returns an OLS regressor (λ = 1e-8).
func NewLinear() *Linear { return &Linear{Lambda: 1e-8} }

// NewBayesianRidge returns a ridge regressor (λ = 1).
func NewBayesianRidge() *Linear { return &Linear{Lambda: 1} }

func (l *Linear) Fit(X [][]float64, y []float64) {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("predictor: linear fit with %d rows, %d targets", len(X), len(y)))
	}
	l.scale = fitScaler(X)
	d := len(X[0]) + 1 // + intercept
	// Normal equations A w = b with A = XᵀX + λI.
	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d)
	}
	b := make([]float64, d)
	row := make([]float64, d)
	for i, xr := range X {
		sx := l.scale.apply(xr)
		copy(row, sx)
		row[d-1] = 1
		for p := 0; p < d; p++ {
			for q := 0; q < d; q++ {
				a[p][q] += row[p] * row[q]
			}
			b[p] += row[p] * y[i]
		}
	}
	for p := 0; p < d; p++ {
		a[p][p] += l.Lambda
	}
	l.w = solveGauss(a, b)
}

func (l *Linear) Predict(x []float64) float64 {
	sx := l.scale.apply(x)
	out := l.w[len(l.w)-1]
	for j, v := range sx {
		out += l.w[j] * v
	}
	return out
}

// solveGauss solves a·x = b in place with partial pivoting.
func solveGauss(a [][]float64, b []float64) []float64 {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		if a[col][col] == 0 {
			continue // singular direction; ridge term normally prevents this
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		if a[r][r] != 0 {
			x[r] = sum / a[r][r]
		}
	}
	return x
}

// ---------------------------------------------------------------------------
// CART regression tree ("DT").

// Tree is a CART regression tree grown by variance reduction.
type Tree struct {
	MaxDepth   int
	MinLeaf    int
	Thresholds int // candidate thresholds per feature (quantiles)

	root *treeNode
}

type treeNode struct {
	feature   int
	threshold float64
	value     float64
	left      *treeNode
	right     *treeNode
}

// NewTree returns a depth-8 CART regressor.
func NewTree() *Tree { return &Tree{MaxDepth: 8, MinLeaf: 4, Thresholds: 24} }

func (t *Tree) Fit(X [][]float64, y []float64) {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("predictor: tree fit with %d rows, %d targets", len(X), len(y)))
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(X, y, idx, 0)
}

func mean(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sse(y []float64, idx []int) float64 {
	m := mean(y, idx)
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

func (t *Tree) grow(X [][]float64, y []float64, idx []int, depth int) *treeNode {
	node := &treeNode{value: mean(y, idx)}
	if depth >= t.MaxDepth || len(idx) < 2*t.MinLeaf {
		return node
	}
	parentSSE := sse(y, idx)
	bestGain := 1e-12
	bestFeat, bestThr := -1, 0.0
	nf := len(X[0])
	vals := make([]float64, len(idx))
	for f := 0; f < nf; f++ {
		for i, id := range idx {
			vals[i] = X[id][f]
		}
		sort.Float64s(vals)
		for k := 1; k <= t.Thresholds; k++ {
			thr := vals[k*(len(vals)-1)/(t.Thresholds+1)]
			var left, right []int
			for _, id := range idx {
				if X[id][f] <= thr {
					left = append(left, id)
				} else {
					right = append(right, id)
				}
			}
			if len(left) < t.MinLeaf || len(right) < t.MinLeaf {
				continue
			}
			gain := parentSSE - sse(y, left) - sse(y, right)
			if gain > bestGain {
				bestGain, bestFeat, bestThr = gain, f, thr
			}
		}
	}
	if bestFeat < 0 {
		return node
	}
	var left, right []int
	for _, id := range idx {
		if X[id][bestFeat] <= bestThr {
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}
	node.feature = bestFeat
	node.threshold = bestThr
	node.left = t.grow(X, y, left, depth+1)
	node.right = t.grow(X, y, right, depth+1)
	return node
}

func (t *Tree) Predict(x []float64) float64 {
	n := t.root
	for n.left != nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// ---------------------------------------------------------------------------
// Gradient-boosted trees ("XGB").

// GBT is gradient boosting with squared loss over shallow CART trees —
// the XGBoost family of the paper's comparison.
type GBT struct {
	Rounds    int
	Depth     int
	Shrinkage float64

	base  float64
	trees []*Tree
}

// NewGBT returns a 60-round, depth-4, 0.15-shrinkage booster.
func NewGBT() *GBT { return &GBT{Rounds: 60, Depth: 4, Shrinkage: 0.15} }

func (g *GBT) Fit(X [][]float64, y []float64) {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("predictor: gbt fit with %d rows, %d targets", len(X), len(y)))
	}
	g.trees = nil
	var s float64
	for _, v := range y {
		s += v
	}
	g.base = s / float64(len(y))
	resid := make([]float64, len(y))
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = g.base
	}
	for r := 0; r < g.Rounds; r++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		t := &Tree{MaxDepth: g.Depth, MinLeaf: 3, Thresholds: 16}
		t.Fit(X, resid)
		g.trees = append(g.trees, t)
		for i := range pred {
			pred[i] += g.Shrinkage * t.Predict(X[i])
		}
	}
}

func (g *GBT) Predict(x []float64) float64 {
	out := g.base
	for _, t := range g.trees {
		out += g.Shrinkage * t.Predict(x)
	}
	return out
}

// ---------------------------------------------------------------------------
// Linear ε-insensitive support vector regression ("SVR").

// SVR is linear support vector regression trained by stochastic
// sub-gradient descent on the ε-insensitive loss with L2 regularisation.
type SVR struct {
	Epsilon float64
	C       float64
	Epochs  int
	LR      float64
	Seed    int64

	scale *scaler
	w     []float64
	b     float64
}

// NewSVR returns an SVR with ε = 0.01 and C = 10.
func NewSVR() *SVR { return &SVR{Epsilon: 0.01, C: 10, Epochs: 200, LR: 0.01} }

func (s *SVR) Fit(X [][]float64, y []float64) {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("predictor: svr fit with %d rows, %d targets", len(X), len(y)))
	}
	s.scale = fitScaler(X)
	d := len(X[0])
	s.w = make([]float64, d)
	s.b = 0
	rng := rand.New(rand.NewSource(s.Seed + 1))
	idx := rng.Perm(len(X))
	lambda := 1 / (s.C * float64(len(X)))
	for e := 0; e < s.Epochs; e++ {
		lr := s.LR / (1 + 0.01*float64(e))
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			x := s.scale.apply(X[i])
			pred := s.b
			for j, v := range x {
				pred += s.w[j] * v
			}
			err := pred - y[i]
			var sign float64
			switch {
			case err > s.Epsilon:
				sign = 1
			case err < -s.Epsilon:
				sign = -1
			}
			for j, v := range x {
				s.w[j] -= lr * (lambda*s.w[j] + sign*v)
			}
			s.b -= lr * sign
		}
	}
}

func (s *SVR) Predict(x []float64) float64 {
	sx := s.scale.apply(x)
	out := s.b
	for j, v := range sx {
		out += s.w[j] * v
	}
	return out
}

// ---------------------------------------------------------------------------
// MLP regressor (the paper's chosen predictor).

// MLP wraps the mlp package as a Regressor with internal feature
// standardisation. Hidden lists the hidden-layer widths, so
// Hidden = {256} is the paper's three-layer 10-256-1 predictor and
// deeper/wider variants reproduce Figs. 9(b) and 9(c).
type MLP struct {
	Hidden []int
	Epochs int
	Batch  int
	LR     float64
	Seed   int64

	scale *scaler
	net   *mlp.Net
}

// NewMLP returns the paper's predictor: one hidden layer of 256
// neurons.
func NewMLP() *MLP { return &MLP{Hidden: []int{256}, Epochs: 450, Batch: 16, LR: 1e-3} }

// MemoKey fingerprints everything Fit's outcome depends on, so memo
// keys built from it collapse sweep axes that reach the same network:
// Fig. 9's family "MLP", depth-3 and width-256 rows are all
// NewMLP() and train once instead of three times.
func (m *MLP) MemoKey() string {
	return fmt.Sprintf("mlp:h=%v,e=%d,b=%d,lr=%g,seed=%d", m.Hidden, m.Epochs, m.Batch, m.LR, m.Seed)
}

func (m *MLP) Fit(X [][]float64, y []float64) {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("predictor: mlp fit with %d rows, %d targets", len(X), len(y)))
	}
	m.scale = fitScaler(X)
	rng := rand.New(rand.NewSource(m.Seed + 7))
	sizes := append([]int{len(X[0])}, m.Hidden...)
	sizes = append(sizes, 1)
	m.net = mlp.New(rng, sizes...)
	xs := tensor.New(len(X), len(X[0]))
	ys := tensor.New(len(y), 1)
	for i, row := range X {
		xs.SetRow(i, m.scale.apply(row))
		ys.Set(i, 0, y[i])
	}
	// Step learning-rate decay: three phases at lr, lr/3, lr/10.
	for _, decay := range []float64{1, 3, 10} {
		m.net.Fit(rng, mlp.NewAdam(m.LR/decay), xs, ys, m.Epochs/3, m.Batch)
	}
}

func (m *MLP) Predict(x []float64) float64 {
	return m.net.Predict(m.scale.apply(x))[0]
}
