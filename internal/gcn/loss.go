package gcn

import (
	"math"
	"math/rand"

	"gopim/internal/graphgen"
	"gopim/internal/tensor"
)

// nodeLossGradInto computes mean softmax cross-entropy over the
// training vertices and writes its gradient w.r.t. the logits into
// grad. probs and grad are caller-owned scratch matching logits' shape,
// overwritten in full (grad is zeroed first, so rows outside the
// training mask come back zero).
func nodeLossGradInto(probs, grad *tensor.Matrix, logits *tensor.Matrix, labels []int, trainMask []bool) float64 {
	logits.SoftmaxRowsInto(probs)
	grad.Zero()
	var loss float64
	var count int
	for v := 0; v < logits.Rows; v++ {
		if !trainMask[v] {
			continue
		}
		count++
	}
	if count == 0 {
		return 0
	}
	inv := 1 / float64(count)
	for v := 0; v < logits.Rows; v++ {
		if !trainMask[v] {
			continue
		}
		p := probs.At(v, labels[v])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= float64(math.Log(p) * inv)
		grow := grad.Row(v)
		prow := probs.Row(v)
		for c := range grow {
			grow[c] = prow[c] * inv
		}
		grow[labels[v]] -= inv
	}
	return loss
}

// nodeAccuracy is argmax accuracy over the test vertices.
func nodeAccuracy(logits *tensor.Matrix, labels []int, testMask []bool) float64 {
	correct, total := 0, 0
	for v := 0; v < logits.Rows; v++ {
		if !testMask[v] {
			continue
		}
		total++
		if logits.ArgMaxRow(v) == labels[v] {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// linkTrainSamples is the number of positive (and negative) pairs
// sampled per epoch for link-prediction training.
const linkTrainSamples = 512

// linkLossGradInto samples training edges and non-edges, scores pairs
// by embedding dot products through a logistic loss, and writes the
// gradient w.r.t. the embeddings into grad: caller-owned scratch
// matching emb's shape, zeroed before the pair sampling accumulates
// into it.
func linkLossGradInto(rng *rand.Rand, grad *tensor.Matrix, emb *tensor.Matrix, g *graphgen.Graph) float64 {
	grad.Zero()
	var loss float64
	samples := 0

	accum := func(u, v int, target float64) {
		zu, zv := emb.Row(u), emb.Row(v)
		var dot float64
		for i := range zu {
			dot += float64(zu[i] * zv[i])
		}
		p := 1 / (1 + math.Exp(-dot))
		eps := 1e-12
		if target > 0.5 {
			loss -= math.Log(math.Max(p, eps))
		} else {
			loss -= math.Log(math.Max(1-p, eps))
		}
		coef := p - target
		gu, gv := grad.Row(u), grad.Row(v)
		for i := range zu {
			gu[i] += float64(coef * zv[i])
			gv[i] += float64(coef * zu[i])
		}
		samples++
	}

	for s := 0; s < linkTrainSamples; s++ {
		// Positive: a random edge endpoint walk.
		u := rng.Intn(g.N)
		nbrs := g.Neighbors(u)
		if len(nbrs) > 0 {
			accum(u, nbrs[rng.Intn(len(nbrs))], 1)
		}
		// Negative: a random non-adjacent pair (collision chance with a
		// true edge is tolerated as noise for dense graphs).
		a, b := rng.Intn(g.N), rng.Intn(g.N)
		if a != b {
			accum(a, b, 0)
		}
	}
	if samples == 0 {
		return 0
	}
	inv := 1 / float64(samples)
	loss *= inv
	grad.ScaleInPlace(inv)
	return loss
}

// linkAccuracy is the paired ranking accuracy: the fraction of
// (positive, negative) evaluation pairs where the positive edge scores
// higher.
func linkAccuracy(emb *tensor.Matrix, pos, neg [][2]int) float64 {
	if len(pos) == 0 || len(pos) != len(neg) {
		return 0
	}
	score := func(e [2]int) float64 {
		zu, zv := emb.Row(e[0]), emb.Row(e[1])
		var dot float64
		for i := range zu {
			dot += float64(zu[i] * zv[i])
		}
		return dot
	}
	wins := 0
	for i := range pos {
		if score(pos[i]) > score(neg[i]) {
			wins++
		}
	}
	return float64(wins) / float64(len(pos))
}
