package predictor

import (
	"math"
	"math/rand"
	"testing"

	"gopim/internal/graphgen"
	"gopim/internal/reram"
	"gopim/internal/stage"
)

func testSpec() ProfileSpec {
	return ProfileSpec{
		Chip:         reram.DefaultChip(),
		Datasets:     mustDatasets("ddi", "collab", "Cora"),
		Scales:       []float64{0.2, 1.0},
		HiddenWidths: []int{64, 256},
		MicroBatches: []int{32, 64},
		MaxVertices:  20_000,
		Seed:         1,
	}
}

func mustDatasets(names ...string) []graphgen.Dataset {
	out := make([]graphgen.Dataset, 0, len(names))
	for _, n := range names {
		d, err := graphgen.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, d)
	}
	return out
}

func TestExtractFeatures(t *testing.T) {
	d, _ := graphgen.ByName("arxiv")
	deg := graphgen.NewDegreeModel(make([]float64, 1000))
	cfg := stage.Config{Chip: reram.DefaultChip(), Dataset: d, Deg: deg, MicroBatch: 64}
	f := Extract(cfg, 1)
	if f[FRIFMCO] != 64 || f[FCIFMCO] != 128 {
		t.Fatalf("CO input features wrong: %v", f)
	}
	if f[FRECO] != 128 || f[FCECO] != 256 {
		t.Fatalf("CO weight features wrong: %v", f)
	}
	if f[FRAAG] != 64 || f[FCAAG] != 1000 || f[FREAG] != 1000 || f[FCEAG] != 256 {
		t.Fatalf("AG features wrong: %v", f)
	}
	if f[FSparsity] != 1 { // zero-degree model has no edges
		t.Fatalf("sparsity = %v, want 1", f[FSparsity])
	}
	if f[FLayer] != 1 {
		t.Fatalf("layer feature = %v", f[FLayer])
	}
	f3 := Extract(cfg, 3)
	if f3[FCECO] != 40 || f3[FLayer] != 3 {
		t.Fatalf("layer-3 features wrong: %v", f3)
	}
}

func TestProfileWorkload(t *testing.T) {
	d, _ := graphgen.ByName("ddi")
	cfg := stage.Config{
		Chip:       reram.DefaultChip(),
		Dataset:    d,
		Deg:        d.SynthDegreeModel(1),
		MicroBatch: 64,
	}
	samples := ProfileWorkload(cfg)
	if len(samples) != 8 { // 2-layer model → 4·2 stages
		t.Fatalf("got %d samples, want 8", len(samples))
	}
	kinds := map[stage.Kind]int{}
	for _, s := range samples {
		kinds[s.Kind]++
		if s.TimeNS <= 0 {
			t.Fatal("sample time must be positive")
		}
		if s.Dataset != "ddi" {
			t.Fatal("provenance missing")
		}
	}
	for _, k := range []stage.Kind{stage.Combination, stage.Aggregation, stage.LossCalc, stage.GradCompute} {
		if kinds[k] != 2 {
			t.Fatalf("kind %v has %d samples, want 2", k, kinds[k])
		}
	}
}

func TestGenerateSweepsAxes(t *testing.T) {
	samples := Generate(testSpec())
	// 3 datasets × 2 scales × 2 widths × 2 mbs, ddi has 8 stages and
	// the 3-layer models 12.
	want := 2 * 2 * 2 * (8 + 12 + 12)
	if len(samples) != want {
		t.Fatalf("got %d samples, want %d", len(samples), want)
	}
	// Determinism.
	again := Generate(testSpec())
	for i := range samples {
		if samples[i] != again[i] {
			t.Fatal("profile generation must be deterministic")
		}
	}
}

func TestSplitTrainTest(t *testing.T) {
	samples := make([]Sample, 100)
	train, test := SplitTrainTest(samples, 0.2)
	if len(test) != 20 || len(train) != 80 {
		t.Fatalf("split sizes %d/%d, want 80/20", len(train), len(test))
	}
	train, test = SplitTrainTest(samples, 0)
	if len(test) != 0 || len(train) != 100 {
		t.Fatal("zero test fraction should keep everything in train")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitTrainTest(samples, 1.5)
}

// Regression fixture: y = 3x₀ − 2x₁ + 5 with noise-free data.
func linearData(rng *rand.Rand, n int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		y[i] = 3*X[i][0] - 2*X[i][1] + 5
	}
	return X, y
}

func TestLinearFitsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := linearData(rng, 200)
	for _, m := range []*Linear{NewLinear(), NewBayesianRidge()} {
		m.Fit(X, y)
		pred := m.Predict([]float64{4, 7})
		want := 3.0*4 - 2*7 + 5
		tol := 0.02
		if m.Lambda >= 1 {
			tol = 1.0 // ridge shrinks coefficients slightly
		}
		if math.Abs(pred-want) > tol {
			t.Fatalf("λ=%g predict = %v, want %v", m.Lambda, pred, want)
		}
	}
}

func TestSVRFitsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := linearData(rng, 300)
	// Normalise targets to the scale SVR's unit learning rate expects.
	var max float64
	for _, v := range y {
		max = math.Max(max, math.Abs(v))
	}
	yn := make([]float64, len(y))
	for i, v := range y {
		yn[i] = v / max
	}
	m := NewSVR()
	m.Fit(X, yn)
	var sse, n float64
	for i := range X {
		d := m.Predict(X[i]) - yn[i]
		sse += d * d
		n++
	}
	if rmse := math.Sqrt(sse / n); rmse > 0.05 {
		t.Fatalf("SVR train RMSE = %v, want < 0.05", rmse)
	}
}

// Nonlinear fixture: tree-family models must beat linear ones.
func TestTreeFamiliesBeatLinearOnNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		X[i] = []float64{a, b}
		y[i] = a * b // multiplicative interaction
	}
	rmse := func(m Regressor) float64 {
		m.Fit(X, y)
		var s float64
		for i := range X {
			d := m.Predict(X[i]) - y[i]
			s += d * d
		}
		return math.Sqrt(s / float64(n))
	}
	lin := rmse(NewLinear())
	dt := rmse(NewTree())
	gbt := rmse(NewGBT())
	if dt >= lin || gbt >= lin {
		t.Fatalf("trees (dt=%v gbt=%v) should beat linear (%v) on x·y", dt, gbt, lin)
	}
	if gbt >= dt {
		t.Fatalf("boosting (%v) should beat a single tree (%v)", gbt, dt)
	}
}

func TestRegressorValidation(t *testing.T) {
	for _, m := range []Regressor{NewLinear(), NewTree(), NewGBT(), NewSVR(), NewMLP()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T: expected panic on empty fit", m)
				}
			}()
			m.Fit(nil, nil)
		}()
	}
}

func TestTimePredictorEndToEnd(t *testing.T) {
	samples := Generate(testSpec())
	train, test := SplitTrainTest(samples, 0.2)

	p := NewTimePredictor()
	p.Train(train)

	rmse := p.RMSE(test)
	if rmse <= 0 || rmse > 0.2 {
		t.Fatalf("test RMSE = %v, want a small positive value", rmse)
	}
	if mre := p.MeanRelativeError(test); mre > 1.5 {
		t.Fatalf("mean relative error = %v, too large", mre)
	}

	// PredictTimes must align with stage.Build.
	d, _ := graphgen.ByName("ddi")
	cfg := stage.Config{
		Chip:       reram.DefaultChip(),
		Dataset:    d,
		Deg:        d.SynthDegreeModel(1),
		MicroBatch: 64,
	}
	times := p.PredictTimes(cfg)
	stages := stage.Build(cfg)
	if len(times) != len(stages) {
		t.Fatalf("%d predictions for %d stages", len(times), len(stages))
	}
	for i, pred := range times {
		if pred <= 0 {
			t.Fatalf("stage %s predicted %v", stages[i].Name, pred)
		}
		ratio := pred / stages[i].TimeNS
		if ratio < 0.05 || ratio > 20 {
			t.Fatalf("stage %s: predicted %v vs true %v (ratio %v)",
				stages[i].Name, pred, stages[i].TimeNS, ratio)
		}
	}
	// The predictor must capture the paper's key structure: AG ≫ CO.
	var co, ag float64
	for i, s := range stages {
		if s.Name == "CO1" {
			co = times[i]
		}
		if s.Name == "AG1" {
			ag = times[i]
		}
	}
	if ag <= 3*co {
		t.Fatalf("predicted AG (%v) should dwarf CO (%v)", ag, co)
	}
}

func TestTimePredictorValidation(t *testing.T) {
	p := NewTimePredictor()
	mustPanicP(t, func() { p.Train(nil) })
	mustPanicP(t, func() {
		p.Train([]Sample{{TimeNS: -1, Kind: stage.Combination}})
	})
	mustPanicP(t, func() { p.PredictSample(Features{}, stage.Combination) })
}

func mustPanicP(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestMLPVariantBuilders(t *testing.T) {
	m := MLPWithDepth(4)
	if len(m.Hidden) != 2 || m.Hidden[0] != 256 {
		t.Fatalf("depth-4 hidden = %v", m.Hidden)
	}
	if MLPWithDepth(2).Hidden == nil {
		// depth 2 = input→output, no hidden layers: empty but non-nil
		// is not required, just must not panic and must train.
	}
	w := MLPWithWidth(32)
	if len(w.Hidden) != 1 || w.Hidden[0] != 32 {
		t.Fatalf("width variant hidden = %v", w.Hidden)
	}
	mustPanicP(t, func() { MLPWithDepth(1) })
	mustPanicP(t, func() { MLPWithWidth(0) })
}

func TestFig9ModelsList(t *testing.T) {
	models := Fig9Models()
	if len(models) != 6 {
		t.Fatalf("want 6 model families, got %d", len(models))
	}
	if models[0].Name != "MLP" {
		t.Fatal("MLP must lead the list")
	}
	for _, m := range models {
		r := m.New()
		if r == nil {
			t.Fatalf("%s constructor returned nil", m.Name)
		}
	}
}
