package tuner

import (
	"testing"

	"gopim/internal/gcn"
	"gopim/internal/graphgen"
)

func testInstance(t *testing.T) *graphgen.Instance {
	t.Helper()
	d, err := graphgen.ByName("arxiv")
	if err != nil {
		t.Fatal(err)
	}
	d.HiddenCh = 32
	d.FeatureDim = 16
	d.NumClasses = 4
	d.Layers = 2
	return d.Synthesize(3, 300)
}

func TestSearchThetaFindsThreshold(t *testing.T) {
	inst := testInstance(t)
	res := SearchTheta(inst, Config{
		Thetas:      []float64{0.3, 0.6, 0.9},
		MaxLoss:     0.05,
		Train:       gcn.Config{Epochs: 20, Seed: 1, LR: 0.01},
		StalePeriod: 5,
	})
	if res.Baseline <= 0 {
		t.Fatalf("baseline accuracy = %v", res.Baseline)
	}
	if len(res.Points) != 3 {
		t.Fatalf("want 3 sweep points, got %d", len(res.Points))
	}
	// Points must come back sorted ascending in θ with sensible write
	// fractions.
	prev := 0.0
	for _, p := range res.Points {
		if p.Theta <= prev {
			t.Fatalf("points not sorted: %+v", res.Points)
		}
		prev = p.Theta
		if p.UpdatedRowFraction <= 0 || p.UpdatedRowFraction > 1 {
			t.Fatalf("update fraction out of range: %+v", p)
		}
	}
	// Higher θ writes more rows.
	if res.Points[0].UpdatedRowFraction >= res.Points[2].UpdatedRowFraction {
		t.Fatalf("update fraction must grow with θ: %+v", res.Points)
	}
	// Chosen θ must be one of the candidates or 1.
	valid := map[float64]bool{0.3: true, 0.6: true, 0.9: true, 1: true}
	if !valid[res.Chosen] {
		t.Fatalf("chosen θ = %v not a candidate", res.Chosen)
	}
	// The chosen θ must actually satisfy the loss budget (or be the
	// fallback 1.0).
	if res.Chosen < 1 {
		for _, p := range res.Points {
			if p.Theta == res.Chosen && res.Baseline-p.Accuracy > 0.05 {
				t.Fatalf("chosen θ violates the budget: %+v vs baseline %v", p, res.Baseline)
			}
		}
	}
}

func TestSearchThetaDefaults(t *testing.T) {
	inst := testInstance(t)
	res := SearchTheta(inst, Config{
		Thetas: []float64{0.5, 1.0},
		Train:  gcn.Config{Epochs: 5, Seed: 1, LR: 0.01},
	})
	if len(res.Points) != 2 {
		t.Fatalf("sweep points = %d", len(res.Points))
	}
	// θ = 1.0 with the default 20-epoch stale period still satisfies
	// any budget relative to itself eventually; Chosen must be set.
	if res.Chosen <= 0 || res.Chosen > 1 {
		t.Fatalf("chosen = %v", res.Chosen)
	}
}

func TestSearchThetaValidation(t *testing.T) {
	inst := testInstance(t)
	mustPanic(t, func() {
		SearchTheta(inst, Config{Train: gcn.Config{Epochs: 0}})
	})
	mustPanic(t, func() {
		SearchTheta(inst, Config{
			Thetas: []float64{0},
			Train:  gcn.Config{Epochs: 1, Seed: 1},
		})
	})
	mustPanic(t, func() {
		SearchTheta(inst, Config{
			Thetas: []float64{1.5},
			Train:  gcn.Config{Epochs: 1, Seed: 1},
		})
	})
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
