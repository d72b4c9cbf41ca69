package predictor

import (
	"fmt"
	"math/rand"

	"gopim/internal/graphgen"
	"gopim/internal/obs"
	"gopim/internal/parallel"
	"gopim/internal/reram"
	"gopim/internal/simmemo"
	"gopim/internal/stage"
)

// Profile-generation metrics: unit and sample counts are functions of
// the spec alone (noise perturbs sample values, never how many there
// are), so both are Sim-clock.
var (
	mProfileUnits = obs.NewCounter("predictor.profile_units", obs.Sim,
		"(dataset, scale) profile units generated")
	mProfileSamples = obs.NewCounter("predictor.profile_samples", obs.Sim,
		"profile samples generated across all units")
)

// ProfileSpec controls synthetic profile-dataset generation. The paper
// collects ~2 200 samples by running six workloads for 30 epochs; we
// sweep the same axes (dataset, graph scale, hidden width, micro-batch
// size) through the timing model directly.
type ProfileSpec struct {
	Chip reram.Chip
	// Datasets to profile; defaults to the full catalog.
	Datasets []graphgen.Dataset
	// Scales shrink each dataset's vertex count; defaults to
	// {0.1, 0.3, 1.0} capped at MaxVertices.
	Scales []float64
	// HiddenWidths override Table IV's hidden channels; defaults to
	// {64, 128, 256, 512}.
	HiddenWidths []int
	// MicroBatches to sweep; defaults to {16, 32, 64, 128, 256}.
	MicroBatches []int
	// MaxVertices caps the degree-model size for generation speed;
	// defaults to 300 000.
	MaxVertices int
	// NoiseFrac adds multiplicative measurement jitter to the recorded
	// stage times (the paper's profiles are real measurements, not
	// analytic values); defaults to 2%. Negative disables.
	NoiseFrac float64
	Seed      int64
}

func (s *ProfileSpec) defaults() {
	if s.Datasets == nil {
		s.Datasets = graphgen.Catalog()
	}
	if s.Scales == nil {
		s.Scales = []float64{0.1, 0.3, 1.0}
	}
	if s.HiddenWidths == nil {
		s.HiddenWidths = []int{64, 128, 256, 512}
	}
	if s.MicroBatches == nil {
		s.MicroBatches = []int{16, 32, 64, 128, 256}
	}
	if s.MaxVertices == 0 {
		s.MaxVertices = 300_000
	}
	if s.NoiseFrac == 0 {
		s.NoiseFrac = 0.02
	}
	if s.NoiseFrac < 0 {
		s.NoiseFrac = 0
	}
	if s.Chip.Tiles == 0 {
		s.Chip = reram.DefaultChip()
	}
}

// unitSeed derives the RNG seed of profile unit i from the spec seed
// with a splitmix64-style mix, so each (dataset, scale) unit owns an
// independent deterministic stream. Because the stream depends only on
// (spec.Seed, i) — never on which worker runs the unit or in what
// order — Generate's output is identical at any worker count.
func unitSeed(base int64, i int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// profileCache memoizes full profile sweeps by spec: the experiments
// driver and the shared-predictor path regenerate the same spec per
// sweep cell. The cached sample slice is shared — callers must treat
// Generate's result as read-only (the existing consumers already copy:
// SplitTrainTest builds fresh slices).
var profileCache = simmemo.NewCache("profile", 64)

// Generate produces the profile dataset by sweeping the spec's axes
// through the timing simulator. Units — one per (dataset, scale) pair,
// covering that pair's full hidden-width × micro-batch sweep — run in
// parallel and are concatenated in sweep order, so the sample list is
// deterministic for a given seed regardless of worker count.
//
// Results are memoized by spec; the returned slice is shared across
// same-spec calls and must not be mutated.
func Generate(spec ProfileSpec) []Sample { return generate(spec, nil) }

// generate is Generate with its Sim counter increments recorded on t.
func generate(spec ProfileSpec, t *obs.Tape) []Sample {
	spec.defaults()
	return simmemo.Do(profileCache, fmt.Sprintf("%+v", spec), t, func(t *obs.Tape) []Sample {
		return generateCore(spec, t)
	})
}

// generateCore is the memoized body of Generate: a pure function of the
// defaulted spec.
func generateCore(spec ProfileSpec, t *obs.Tape) []Sample {
	type unit struct {
		ds   graphgen.Dataset
		n    int
		seed int64
	}
	units := make([]unit, 0, len(spec.Datasets)*len(spec.Scales))
	for _, d := range spec.Datasets {
		for _, scale := range spec.Scales {
			n := int(float64(d.PaperVertices) * scale)
			if n > spec.MaxVertices {
				n = spec.MaxVertices
			}
			if n < 64 {
				n = 64
			}
			units = append(units, unit{ds: d, n: n, seed: unitSeed(spec.Seed, len(units))})
		}
	}
	perUnit := parallel.Map(len(units), func(i int) []Sample {
		u := units[i]
		rng := rand.New(rand.NewSource(u.seed))
		deg := graphgen.NewDegreeModel(
			graphgen.PowerLawWeights(rng, u.n, u.ds.PaperAvgDeg, graphgen.PowerLawAlpha))
		var samples []Sample
		for _, hidden := range spec.HiddenWidths {
			ds := u.ds
			ds.HiddenCh = hidden
			for _, mb := range spec.MicroBatches {
				cfg := stage.Config{
					Chip:       spec.Chip,
					Dataset:    ds,
					Deg:        deg,
					MicroBatch: mb,
				}
				ws := ProfileWorkload(cfg)
				for i := range ws {
					ws[i].TimeNS *= 1 + spec.NoiseFrac*rng.NormFloat64()
					if ws[i].TimeNS <= 0 {
						ws[i].TimeNS = 1
					}
				}
				samples = append(samples, ws...)
			}
		}
		return samples
	})
	var samples []Sample
	for _, s := range perUnit {
		samples = append(samples, s...)
	}
	t.Add(mProfileUnits, int64(len(units)))
	t.Add(mProfileSamples, int64(len(samples)))
	return samples
}

// sharedCache memoizes trained time predictors by profile spec, so
// tab7, the CLI's "all" run and the serve daemon train one model per
// spec. It holds as many specs as the profile cache.
var sharedCache = simmemo.NewCache("predictor", 64)

// Shared returns the MLP time predictor trained on spec's profile
// sweep, one per spec. A hit replays the profile and training counters
// of the run that trained it. The predictor is shared: it is read-only
// and safe for concurrent Predict calls.
func Shared(spec ProfileSpec) *TimePredictor {
	spec.defaults()
	return simmemo.Do(sharedCache, fmt.Sprintf("%+v", spec), nil, func(t *obs.Tape) *TimePredictor {
		sp := obs.StartSpan("predictor.train")
		defer sp.End()
		p := NewTimePredictor()
		p.train(generate(spec, t), t)
		return p
	})
}
