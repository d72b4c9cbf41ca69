// Package predictor implements GoPIM's ML-based execution-time
// prediction (paper §V-A): the ten Table I workload features, profile
// generation from the timing simulator, the three-layer MLP predictor
// (10-256-1), and the regressor families it is benchmarked against in
// Fig. 9 (XGBoost-style gradient boosting, SVR, decision tree, linear
// regression, Bayesian ridge).
package predictor

import (
	"fmt"

	"gopim/internal/stage"
)

// NumFeatures is the size of the Table I feature vector.
const NumFeatures = 10

// Features is one Table I feature vector describing a GCN layer's
// workload on the accelerator.
type Features [NumFeatures]float64

// Feature indices, in Table I order.
const (
	FRIFMCO   = iota // rows of the Combination input matrix (micro-batch)
	FCIFMCO          // cols of the Combination input matrix
	FRECO            // rows of the mapped Combination weight matrix
	FCECO            // cols of the mapped Combination weight matrix
	FRAAG            // rows of the Aggregation adjacency input
	FCAAG            // cols of the Aggregation adjacency input
	FREAG            // rows of the mapped Aggregation feature matrix
	FCEAG            // cols of the mapped Aggregation feature matrix
	FSparsity        // graph sparsity
	FLayer           // current layer index
)

// Extract builds the Table I feature vector for layer l of a workload.
func Extract(cfg stage.Config, l int) Features {
	in, out := stage.LayerDims(cfg.Dataset, l)
	n := cfg.Deg.N
	b := cfg.MicroBatch
	// Sparsity of the adjacency matrix: 1 − 2E/n².
	sparsity := 1.0
	if n > 0 {
		sparsity = 1 - 2*cfg.Deg.TotalEdges()/(float64(n)*float64(n))
	}
	return Features{
		FRIFMCO:   float64(b),
		FCIFMCO:   float64(in),
		FRECO:     float64(in),
		FCECO:     float64(out),
		FRAAG:     float64(b),
		FCAAG:     float64(n),
		FREAG:     float64(n),
		FCEAG:     float64(out),
		FSparsity: sparsity,
		FLayer:    float64(l),
	}
}

// Sample is one profiling record: the layer's features, the stage kind,
// and the measured per-micro-batch stage time.
type Sample struct {
	Features Features
	Kind     stage.Kind
	TimeNS   float64
	// Dataset records provenance for leave-one-out generalisation
	// experiments (paper §VII-G).
	Dataset string
}

// ProfileWorkload runs the timing model on one workload configuration
// and emits one sample per stage.
func ProfileWorkload(cfg stage.Config) []Sample {
	stages := stage.Build(cfg)
	samples := make([]Sample, 0, len(stages))
	for _, s := range stages {
		samples = append(samples, Sample{
			Features: Extract(cfg, s.Layer),
			Kind:     s.Kind,
			TimeNS:   s.TimeNS,
			Dataset:  cfg.Dataset.Name,
		})
	}
	return samples
}

// SplitTrainTest partitions samples deterministically by index hash
// into train and test sets with the given test fraction (paper: 8:2).
func SplitTrainTest(samples []Sample, testFrac float64) (train, test []Sample) {
	if testFrac < 0 || testFrac > 1 {
		panic(fmt.Sprintf("predictor: test fraction %v out of [0,1]", testFrac))
	}
	period := 1.0
	if testFrac > 0 {
		period = 1 / testFrac
	}
	var acc float64
	for _, s := range samples {
		acc += 1
		if testFrac > 0 && acc >= period {
			acc -= period
			test = append(test, s)
		} else {
			train = append(train, s)
		}
	}
	return train, test
}
