package predictor

import (
	"fmt"
	"math"
	"slices"

	"gopim/internal/obs"
	"gopim/internal/parallel"
	"gopim/internal/simmemo"
	"gopim/internal/stage"
)

// Training metrics: call and sample counts depend only on what callers
// submit, so they are Sim-clock; fit time is Wall.
var (
	mTrainCalls = obs.NewCounter("predictor.train_calls", obs.Sim,
		"TimePredictor.Train invocations")
	mTrainSamples = obs.NewCounter("predictor.train_samples", obs.Sim,
		"samples consumed across all Train calls")
	mTrainTime = obs.NewTimer("predictor.train_ns",
		"wall time per Train call")
)

// TimePredictor predicts per-stage execution times from Table I
// features. One regressor is trained per stage kind (CO, AG, LC, GC)
// on log-scaled, min-max-normalised targets — stage times span four
// orders of magnitude, and the paper's RMSE (≈0.002) is only
// meaningful on a normalised scale. The per-kind fits are independent
// units of the parallel pool, run in sorted-kind order; each reads
// only its own samples and its model's own seed, so a trained
// predictor is bit-identical at any worker count.
type TimePredictor struct {
	// NewModel constructs the regressor family used for each stage
	// kind; defaults to the paper's MLP.
	NewModel func() Regressor

	models map[stage.Kind]Regressor
	lo, hi map[stage.Kind]float64 // log-target normalisation bounds
}

// NewTimePredictor returns an untrained predictor using the paper's
// 3-layer MLP family.
func NewTimePredictor() *TimePredictor {
	return &TimePredictor{NewModel: func() Regressor { return NewMLP() }}
}

// logFeatures maps a Table I feature vector to log space: stage times
// are products of dimensional quantities, so log features make the
// relationship near-linear and learnable by every model family. The
// sparsity feature is the exception — its information lives in the
// density 1−s, which spans six orders of magnitude across the catalog,
// so it enters as log density.
func logFeatures(f Features) []float64 {
	out := make([]float64, len(f))
	for i, v := range f {
		if i == FSparsity {
			out[i] = math.Log(1 - v + 1e-9)
			continue
		}
		out[i] = math.Log1p(v)
	}
	return out
}

// logNorm maps a time to normalised log space given bounds.
func logNorm(t, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	return (math.Log(t) - lo) / (hi - lo)
}

func logDenorm(v, lo, hi float64) float64 {
	return math.Exp(v*(hi-lo) + lo)
}

// Train fits one model per stage kind on the samples, the kinds in
// parallel.
func (p *TimePredictor) Train(samples []Sample) { p.train(samples, nil) }

// train is Train with its Sim counter increments recorded on t.
func (p *TimePredictor) train(samples []Sample, t *obs.Tape) {
	if len(samples) == 0 {
		panic("predictor: no training samples")
	}
	t0 := obs.NowIfEnabled()
	defer mTrainTime.ObserveSince(t0)
	t.Inc(mTrainCalls)
	t.Add(mTrainSamples, int64(len(samples)))
	if p.NewModel == nil {
		p.NewModel = func() Regressor { return NewMLP() }
	}
	byKind := map[stage.Kind][]Sample{}
	for _, s := range samples {
		if s.TimeNS <= 0 {
			panic(fmt.Sprintf("predictor: sample with non-positive time %v", s.TimeNS))
		}
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	kinds := make([]stage.Kind, 0, len(byKind))
	for kind := range byKind {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	// Models are constructed on the caller, so NewModel need not be
	// safe for concurrent use; each fit then reads only its own
	// samples and its model's own seed.
	models := make([]Regressor, len(kinds))
	for i := range models {
		models[i] = p.NewModel()
	}
	type bounds struct{ lo, hi float64 }
	fits := parallel.Map(len(kinds), func(k int) bounds {
		ss := byKind[kinds[k]]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range ss {
			l := math.Log(s.TimeNS)
			lo = math.Min(lo, l)
			hi = math.Max(hi, l)
		}
		if hi <= lo {
			hi = lo + 1
		}
		X := make([][]float64, len(ss))
		y := make([]float64, len(ss))
		for i, s := range ss {
			X[i] = logFeatures(s.Features)
			y[i] = logNorm(s.TimeNS, lo, hi)
		}
		models[k].Fit(X, y)
		return bounds{lo, hi}
	})
	p.models = make(map[stage.Kind]Regressor, len(kinds))
	p.lo = make(map[stage.Kind]float64, len(kinds))
	p.hi = make(map[stage.Kind]float64, len(kinds))
	for i, kind := range kinds {
		p.models[kind] = models[i]
		p.lo[kind] = fits[i].lo
		p.hi[kind] = fits[i].hi
	}
}

// PredictSample returns the predicted time in nanoseconds for one
// feature vector and stage kind.
func (p *TimePredictor) PredictSample(f Features, kind stage.Kind) float64 {
	m, ok := p.models[kind]
	if !ok {
		panic(fmt.Sprintf("predictor: no model for stage kind %v", kind))
	}
	v := m.Predict(logFeatures(f))
	// Clamp to slightly beyond the training envelope: in normalised
	// log space, extrapolations explode exponentially on denorm, and a
	// stage time far outside everything ever profiled is never a
	// trustworthy prediction.
	if v < -0.25 {
		v = -0.25
	}
	if v > 1.25 {
		v = 1.25
	}
	return logDenorm(v, p.lo[kind], p.hi[kind])
}

// PredictTimes predicts the per-micro-batch time of every stage of a
// workload, in stage.Build order. This is the input GoPIM's resource
// allocator consumes (paper §V-B).
func (p *TimePredictor) PredictTimes(cfg stage.Config) []float64 {
	stages := stage.Build(cfg)
	out := make([]float64, len(stages))
	for i, s := range stages {
		out[i] = p.PredictSample(Extract(cfg, s.Layer), s.Kind)
	}
	return out
}

// RMSE computes the root-mean-square error of a predictor over test
// samples, measured in the normalised log-time space (comparable to
// the paper's 0.0022 figure).
func (p *TimePredictor) RMSE(test []Sample) float64 {
	if len(test) == 0 {
		return 0
	}
	var sum float64
	var n int
	for _, s := range test {
		m, ok := p.models[s.Kind]
		if !ok {
			continue
		}
		pred := m.Predict(logFeatures(s.Features))
		want := logNorm(s.TimeNS, p.lo[s.Kind], p.hi[s.Kind])
		d := pred - want
		sum += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// MeanRelativeError reports |pred−true|/true averaged over samples —
// the "prediction accuracy" metric of the paper's generalisation study
// is 1 − this value.
func (p *TimePredictor) MeanRelativeError(test []Sample) float64 {
	if len(test) == 0 {
		return 0
	}
	var sum float64
	var n int
	for _, s := range test {
		if _, ok := p.models[s.Kind]; !ok {
			continue
		}
		pred := p.PredictSample(s.Features, s.Kind)
		sum += math.Abs(pred-s.TimeNS) / s.TimeNS
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ModelRMSE trains a fresh predictor with the given model family on
// train and reports RMSE on test — one bar of paper Fig. 9(a).
func ModelRMSE(newModel func() Regressor, train, test []Sample) float64 {
	return ModelRMSECached("", newModel, train, test)
}

// rmseCache memoizes ModelRMSECached bars. The model constructor is a
// func and cannot be fingerprinted, so the caller's key must encode the
// model variant along with whatever determines train/test.
var rmseCache = simmemo.NewCache("rmse", 256)

// ModelRMSECached is ModelRMSE memoized under a caller-provided key
// that must uniquely determine (newModel, train, test) — typically the
// profile-spec fingerprint plus the model variant name. An empty key
// opts out. A hit replays the training counters, so Sim snapshots
// match the uncached path exactly.
func ModelRMSECached(key string, newModel func() Regressor, train, test []Sample) float64 {
	return simmemo.Do(rmseCache, key, nil, func(t *obs.Tape) float64 {
		p := &TimePredictor{NewModel: newModel}
		p.train(train, t)
		return p.RMSE(test)
	})
}

// VariantKey returns the memo-key suffix for one sweep variant: the
// constructed model's own configuration fingerprint when it provides
// one (MemoKey), else the sweep label. Canonical fingerprints are what
// let different sweep axes that name the same configuration share a
// single ModelRMSE computation; constructing the model here is cheap
// (no training happens until Fit).
func VariantKey(label string, newModel func() Regressor) string {
	if k, ok := newModel().(interface{ MemoKey() string }); ok {
		return k.MemoKey()
	}
	return label
}

// Fig9Models returns the model families of paper Fig. 9(a) keyed by
// their display names, in the paper's order.
func Fig9Models() []struct {
	Name string
	New  func() Regressor
} {
	return []struct {
		Name string
		New  func() Regressor
	}{
		{"MLP", func() Regressor { return NewMLP() }},
		{"XGB", func() Regressor { return NewGBT() }},
		{"SVR", func() Regressor { return NewSVR() }},
		{"DT", func() Regressor { return NewTree() }},
		{"LR", func() Regressor { return NewLinear() }},
		{"BR", func() Regressor { return NewBayesianRidge() }},
	}
}

// MLPWithDepth builds the Fig. 9(b) variants: total layer count
// `layers` (2–6) with 256-wide hidden layers.
func MLPWithDepth(layers int) *MLP {
	if layers < 2 {
		panic(fmt.Sprintf("predictor: MLP needs ≥ 2 layers, got %d", layers))
	}
	hidden := make([]int, layers-2)
	for i := range hidden {
		hidden[i] = 256
	}
	m := NewMLP()
	m.Hidden = hidden
	return m
}

// MLPWithWidth builds the Fig. 9(c) variants: a three-layer MLP with
// the given hidden width.
func MLPWithWidth(width int) *MLP {
	if width < 1 {
		panic(fmt.Sprintf("predictor: width %d must be positive", width))
	}
	m := NewMLP()
	m.Hidden = []int{width}
	return m
}
