package experiments

import (
	"fmt"

	"gopim/internal/accel"
	"gopim/internal/graphgen"
	"gopim/internal/predictor"
	"gopim/internal/reram"
	"gopim/internal/stage"
)

func init() {
	register("fig9", fig9)
}

// profileSpec builds the predictor's profile-generation sweep. The
// full-mode sweep is sized to the paper's ~2 200-sample profile corpus
// (§V-A); Fast mode shrinks it further for smoke runs.
func profileSpec(opt Options) predictor.ProfileSpec {
	spec := predictor.ProfileSpec{
		Seed:         opt.Seed,
		Scales:       []float64{0.2, 1.0},
		HiddenWidths: []int{64, 128, 256},
		MicroBatches: []int{16, 32, 64, 128},
		MaxVertices:  150_000,
	}
	if opt.Fast {
		spec.Datasets = fastDatasets("ddi", "collab", "Cora")
		spec.Scales = []float64{0.2, 1}
		spec.HiddenWidths = []int{64, 256}
		spec.MicroBatches = []int{32, 64}
		spec.MaxVertices = 20_000
	}
	return spec
}

func fastDatasets(names ...string) []graphgen.Dataset {
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

// fig9 reproduces the predictor bake-off: (a) RMSE across model
// families, (b) RMSE vs MLP depth, (c) RMSE vs hidden width.
func fig9(opt Options) (*Result, error) {
	spec := profileSpec(opt)
	samples := predictor.Generate(spec)
	train, test := predictor.SplitTrainTest(samples, 0.2)
	// The RMSE memo key must determine (model, train, test): the spec
	// fingerprint pins the profile corpus (and with it the 8:2 split),
	// the suffix pins the model variant. VariantKey canonicalises the
	// suffix, so the three sweep axes that all name the default MLP
	// (family "MLP", 3 layers, 256 neurons) train once and share.
	specKey := fmt.Sprintf("%+v", spec)

	res := &Result{
		ID:     "fig9",
		Title:  "Execution-time predictor comparison (RMSE, normalised log-time)",
		Paper:  "MLP beats XGB/SVR/DT/LR/BR; 3 layers best; 256 hidden neurons best; RMSE ≈ 0.0022",
		Header: []string{"variant", "model", "RMSE"},
	}

	// (a) model families.
	for _, m := range predictor.Fig9Models() {
		rmse := predictor.ModelRMSECached(specKey+"|"+predictor.VariantKey("family:"+m.Name, m.New), m.New, train, test)
		res.Rows = append(res.Rows, []string{"(a) family", m.Name, fmtF(rmse)})
	}

	// (b) MLP depth sweep 2–6 total layers.
	depths := []int{2, 3, 4, 5, 6}
	if opt.Fast {
		depths = []int{2, 3, 4}
	}
	for _, depth := range depths {
		d := depth
		mk := func() predictor.Regressor { return predictor.MLPWithDepth(d) }
		rmse := predictor.ModelRMSECached(specKey+"|"+predictor.VariantKey(fmt.Sprintf("depth:%d", d), mk), mk, train, test)
		res.Rows = append(res.Rows, []string{"(b) depth", fmt.Sprintf("%d layers", d), fmtF(rmse)})
	}

	// (c) hidden width sweep for the 3-layer MLP.
	widths := []int{32, 64, 128, 256, 512, 1024}
	if opt.Fast {
		widths = []int{32, 256}
	}
	for _, width := range widths {
		w := width
		mk := func() predictor.Regressor { return predictor.MLPWithWidth(w) }
		rmse := predictor.ModelRMSECached(specKey+"|"+predictor.VariantKey(fmt.Sprintf("width:%d", w), mk), mk, train, test)
		res.Rows = append(res.Rows, []string{"(c) width", fmt.Sprintf("%d neurons", w), fmtF(rmse)})
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("profile dataset: %d samples (train %d / test %d), 8:2 split as in the paper", len(samples), len(train), len(test)),
		"RMSE is measured on min-max-normalised log stage times; stage latencies span four orders of magnitude.")
	return res, nil
}

// SharedPredictor returns the MLP time predictor trained on opt's
// profile sweep, one per sweep (predictor.Shared): tab7, the CLI's
// "all" run and the serve daemon plan against the same shared,
// read-only model.
func SharedPredictor(opt Options) *predictor.TimePredictor {
	return predictor.Shared(profileSpec(opt))
}

// predictTimesFor produces the predictor's stage-time estimates for an
// accelerator workload (full-update stage structure, as profiled).
func predictTimesFor(p *predictor.TimePredictor, w accel.Workload) []float64 {
	mb := w.MicroBatch
	if mb == 0 {
		mb = 64
	}
	deg := w.Deg
	if deg == nil {
		deg = accel.DegModelFor(w.Dataset, w.Seed)
	}
	return p.PredictTimes(stage.Config{
		Chip:       reram.DefaultChip(),
		Dataset:    w.Dataset,
		Deg:        deg,
		MicroBatch: mb,
	})
}
