// Package tuner automates the paper's adaptive-threshold procedure
// (§VI-C): benchmark accuracy across update thresholds θ, find the
// smallest θ whose accuracy loss against exact training stays within a
// budget, and report the whole sweep. The paper runs this offline to
// derive its 50%/80% dense/sparse defaults; this package lets a user
// re-derive a threshold for an arbitrary graph.
package tuner

import (
	"fmt"
	"sort"

	"gopim/internal/gcn"
	"gopim/internal/graphgen"
	"gopim/internal/mapping"
)

// Point is one θ evaluation.
type Point struct {
	Theta    float64
	Accuracy float64
	// UpdatedRowFraction is the steady-state write traffic at this θ.
	UpdatedRowFraction float64
}

// SweepResult is a full θ sweep plus the chosen threshold.
type SweepResult struct {
	// Baseline is exact-training accuracy (θ = 1, every epoch).
	Baseline float64
	Points   []Point
	// Chosen is the smallest θ within the loss budget (1.0 if none).
	Chosen float64
}

// Config controls the search.
type Config struct {
	// Thetas to evaluate; defaults to 0.1…1.0 in steps of 0.1.
	Thetas []float64
	// MaxLoss is the tolerated accuracy drop (paper: 1%). Defaults to
	// 0.01.
	MaxLoss float64
	// Train configures the underlying GCN runs (epochs must be set).
	Train gcn.Config
	// StalePeriod for non-important vertices; defaults to 20.
	StalePeriod int
	// InstanceKey, when non-empty, memoizes the sweep's training runs
	// through gcn.TrainMemo. It must uniquely identify the instance's
	// content (see TrainMemo); leave empty for ad-hoc instances.
	InstanceKey string
}

// SearchTheta runs the paper's three steps — accuracy benchmarking,
// accuracy analysis, threshold determination — on one instance.
func SearchTheta(inst *graphgen.Instance, cfg Config) SweepResult {
	if cfg.Train.Epochs < 1 {
		panic(fmt.Sprintf("tuner: training epochs %d must be ≥ 1", cfg.Train.Epochs))
	}
	thetas := cfg.Thetas
	if thetas == nil {
		for v := 1; v <= 10; v++ {
			thetas = append(thetas, float64(v)/10)
		}
	}
	maxLoss := cfg.MaxLoss
	if maxLoss == 0 {
		maxLoss = 0.01
	}
	period := cfg.StalePeriod
	if period == 0 {
		period = 20
	}
	degs := make([]float64, inst.Graph.N)
	for v := range degs {
		degs[v] = float64(inst.Graph.Degree(v))
	}

	// Step 1: benchmark. The θ=1 run doubles as the exact baseline.
	base := cfg.Train
	base.Plan = nil
	baseline := gcn.TrainMemo(cfg.InstanceKey, inst, base).Accuracy

	res := SweepResult{Baseline: baseline, Chosen: 1}
	sorted := append([]float64(nil), thetas...)
	sort.Float64s(sorted)
	for _, theta := range sorted {
		if theta <= 0 || theta > 1 {
			panic(fmt.Sprintf("tuner: theta %v out of (0,1]", theta))
		}
		run := cfg.Train
		run.Plan = mapping.NewUpdatePlan(degs, theta, period)
		r := gcn.TrainMemo(cfg.InstanceKey, inst, run)
		res.Points = append(res.Points, Point{
			Theta:              theta,
			Accuracy:           r.Accuracy,
			UpdatedRowFraction: r.UpdatedRowFraction,
		})
	}

	// Steps 2–3: analyse and pick the smallest θ within budget.
	for _, p := range res.Points {
		if baseline-p.Accuracy <= maxLoss {
			res.Chosen = p.Theta
			break
		}
	}
	return res
}
