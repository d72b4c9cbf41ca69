package predictor

import (
	"math"
	"slices"
	"testing"

	"gopim/internal/parallel"
	"gopim/internal/stage"
)

func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	parallel.SetWorkers(n)
	defer parallel.SetWorkers(0)
	f()
}

// TestGenerateDeterministicAcrossWorkers pins the profile-generation
// determinism contract: every (dataset, scale) unit derives its own
// RNG stream from the spec seed, so the sample list is identical
// whether units run serially or fan out.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	var base []Sample
	withWorkers(t, 1, func() { base = Generate(testSpec()) })
	for _, w := range []int{2, 8} {
		withWorkers(t, w, func() {
			got := Generate(testSpec())
			if len(got) != len(base) {
				t.Fatalf("workers=%d: %d samples vs %d", w, len(got), len(base))
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("workers=%d: sample %d = %+v, serial %+v", w, i, got[i], base[i])
				}
			}
		})
	}
}

// TestRMSEDeterministicAcrossWorkers trains the linear family and the
// paper's MLP on worker-count-independent profiles and checks each
// RMSE is bit-equal across worker counts — the predictor-level
// determinism guarantee.
func TestRMSEDeterministicAcrossWorkers(t *testing.T) {
	for _, fam := range []struct {
		name string
		new  func() Regressor
	}{
		{"linear", func() Regressor { return NewLinear() }},
		{"mlp", func() Regressor { return NewMLP() }},
	} {
		rmseAt := func(w int) float64 {
			var rmse float64
			withWorkers(t, w, func() {
				train, test := SplitTrainTest(Generate(testSpec()), 0.2)
				rmse = ModelRMSE(fam.new, train, test)
			})
			return rmse
		}
		base := rmseAt(1)
		if base <= 0 {
			t.Fatalf("%s: degenerate baseline RMSE %v", fam.name, base)
		}
		for _, w := range []int{2, 8} {
			if got := rmseAt(w); got != base {
				t.Fatalf("%s, workers=%d: RMSE %v, serial %v", fam.name, w, got, base)
			}
		}
	}
}

// referenceTrain is the plain serial form of train: the kinds in
// sorted order, fitted one after another on the caller.
func referenceTrain(newModel func() Regressor, samples []Sample) *TimePredictor {
	byKind := map[stage.Kind][]Sample{}
	for _, s := range samples {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	p := &TimePredictor{
		NewModel: newModel,
		models:   map[stage.Kind]Regressor{},
		lo:       map[stage.Kind]float64{},
		hi:       map[stage.Kind]float64{},
	}
	kinds := make([]stage.Kind, 0, len(byKind))
	for kind := range byKind {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	for _, kind := range kinds {
		ss := byKind[kind]
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
		m := newModel()
		m.Fit(X, y)
		p.models[kind] = m
		p.lo[kind] = lo
		p.hi[kind] = hi
	}
	return p
}

// TestTrainMatchesSerialReference pins the per-kind fits as pool
// units: at 1, 2 and 8 workers, train gives every kind the same
// normalisation bounds and the same predictions, bit for bit, as the
// serial reference loop.
func TestTrainMatchesSerialReference(t *testing.T) {
	train, test := SplitTrainTest(Generate(testSpec()), 0.2)
	newMLP := func() Regressor { return NewMLP() }
	var want *TimePredictor
	withWorkers(t, 1, func() { want = referenceTrain(newMLP, train) })
	if len(want.models) != 4 {
		t.Fatalf("reference fitted %d kinds, want all 4", len(want.models))
	}
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			got := &TimePredictor{NewModel: newMLP}
			got.Train(train)
			if len(got.models) != len(want.models) {
				t.Fatalf("workers=%d: %d kinds, reference %d", w, len(got.models), len(want.models))
			}
			for kind := range want.models {
				if math.Float64bits(got.lo[kind]) != math.Float64bits(want.lo[kind]) ||
					math.Float64bits(got.hi[kind]) != math.Float64bits(want.hi[kind]) {
					t.Fatalf("workers=%d, kind %v: bounds [%v, %v], reference [%v, %v]",
						w, kind, got.lo[kind], got.hi[kind], want.lo[kind], want.hi[kind])
				}
			}
			for i, s := range test {
				g, r := got.PredictSample(s.Features, s.Kind), want.PredictSample(s.Features, s.Kind)
				if math.Float64bits(g) != math.Float64bits(r) {
					t.Fatalf("workers=%d, test sample %d (kind %v): predicted %v, reference %v",
						w, i, s.Kind, g, r)
				}
			}
		})
	}
}

// TestLeaveOneOutShape checks the parallel fold sweep covers each fold
// once, in order, with sane accuracies.
func TestLeaveOneOutShape(t *testing.T) {
	spec := testSpec()
	catalog := spec.Datasets
	spec.Datasets = nil
	folds := LeaveOneOut(spec, catalog, catalog[:2])
	if len(folds) != 2 {
		t.Fatalf("got %d folds", len(folds))
	}
	for i, f := range folds {
		if f.Dataset != catalog[i].Name {
			t.Fatalf("fold %d = %s, want %s (input order)", i, f.Dataset, catalog[i].Name)
		}
		if f.Accuracy < 0 || f.Accuracy > 1 {
			t.Fatalf("fold %s accuracy %v out of [0,1]", f.Dataset, f.Accuracy)
		}
		if f.TestSamples == 0 {
			t.Fatalf("fold %s has no test samples", f.Dataset)
		}
	}
}
