package accel

import (
	"fmt"

	"gopim/internal/alloc"
	"gopim/internal/churn"
	"gopim/internal/endurance"
	"gopim/internal/fault"
	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/obs"
	"gopim/internal/pipeline"
	"gopim/internal/stage"
)

// Churn counters. Pure functions of (workload, churn config), so they
// live on the Sim clock; all stay at zero when no churn run executes,
// keeping default-run snapshots byte-identical to the pre-churn ones.
var (
	mChurnEdgesAdded = obs.NewCounter("churn.edges_added", obs.Sim,
		"edges inserted by streaming-graph churn")
	mChurnEdgesRemoved = obs.NewCounter("churn.edges_removed", obs.Sim,
		"edges deleted by streaming-graph churn")
	mChurnStripesMoved = obs.NewCounter("churn.stripes_moved", obs.Sim,
		"vertex stripes relocated by incremental re-mapping")
	mChurnFullRemaps = obs.NewCounter("churn.remap_full_fallbacks", obs.Sim,
		"churn epochs where incremental re-mapping fell back to a full remap")
	mChurnRetirements = obs.NewCounter("churn.retirements_triggered", obs.Sim,
		"churn epochs where accumulated wear retired additional crossbars")
)

// churnRetireThreshold is the stuck-cell density that retires a
// crossbar when churn wear runs without a base fault model (whose New
// default of 2×Rate would be zero and retire everything).
const churnRetireThreshold = 0.02

// churnStalePeriod matches runCore's ISU refresh period.
const churnStalePeriod = 20

// ChurnProfile is the production write-traffic profile one churn epoch
// scales by Config.DaysPerEpoch: each epoch the array absorbs
// DaysPerEpoch days of this traffic on its hottest (important,
// every-epoch) rows, and fault.WearStuckFraction turns the cumulative
// writes into stuck cells. The figures model a continuously retrained
// deployment: 200-epoch runs, two an hour.
var ChurnProfile = endurance.Profile{
	WritesPerVertexPerEpoch: 1,
	EpochsPerRun:            200,
	RunsPerDay:              48,
}

// ChurnEpoch is one epoch's row in a churn run report.
type ChurnEpoch struct {
	Epoch        int
	EdgesAdded   int
	EdgesRemoved int
	Vertices     int // vertex count after this epoch's arrivals
	StripesMoved int
	FullRemap    bool
	Refreshed    bool
	Theta        float64
	Retired      int
	Degraded     bool
	MakespanNS   float64
}

// ChurnResult is the outcome of one streaming-churn run.
type ChurnResult struct {
	Dataset string
	Policy  churn.Policy
	Epochs  []ChurnEpoch

	EdgesAdded     int
	EdgesRemoved   int
	StripesMoved   int
	FullRemaps     int
	Refreshes      int
	Retirements    int // epochs where the retired-crossbar count grew
	FinalRetired   int
	DegradedEpochs int
}

// RunChurn drives the GoPIM model through a streaming-graph mutation
// sequence: each epoch the churn stream mutates the degree sequence,
// incremental re-mapping (mapping.ApplyDelta) relocates only the
// stripes whose rank changed, the refresh policy decides whether the
// ISU plan is recomputed, accumulated churn writes feed the endurance
// model so wear retires crossbars mid-run, and replica allocation
// degrades around the shrinking pool instead of erroring.
//
// The loop is strictly sequential and every random draw is keyed by
// (seed, epoch), so results — and the churn.* Sim counters — are
// byte-identical at any worker count.
func RunChurn(w Workload, cc churn.Config, epochs int) (ChurnResult, error) {
	if epochs < 1 {
		return ChurnResult{}, fmt.Errorf("accel: churn epochs %d must be ≥ 1", epochs)
	}
	stream, err := churn.NewStream(cc)
	if err != nil {
		return ChurnResult{}, err
	}
	cc = stream.Config()
	w.defaults()
	// DegModelFor memoizes: mutate a copy, never the shared model.
	degs := append([]float64(nil), w.Deg.DegreesByIndex...)
	fm := w.Fault
	if fm == nil {
		fm = fault.Default()
	}
	baseCfg := fm.Config() // zero Config when fm is nil
	if baseCfg.RetireThreshold == 0 {
		baseCfg.RetireThreshold = churnRetireThreshold
	}

	theta := w.ThetaOverride
	if theta == 0 {
		theta = w.Dataset.AdaptiveTheta()
	}
	rows := w.Chip.CrossbarRows
	cells := w.Chip.CellsPerCrossbar()
	var layout *mapping.Layout
	if fm.Enabled() {
		needed := (len(degs) + rows - 1) / rows
		layout = mapping.InterleavedLayoutHealthy(degs, rows, fm.DeadGroups(needed, cells))
	} else {
		layout = mapping.InterleavedLayout(degs, rows)
	}
	plan := layout.UpdatePlan(theta, churnStalePeriod)

	res := ChurnResult{Dataset: w.Dataset.Name, Policy: cc.Policy}
	prevRetired := 0
	if fm.Enabled() {
		prevRetired = fm.Retired(w.Chip.TotalCrossbars(), cells)
	}
	drift := 0.0
	for e := 0; e < epochs; e++ {
		var delta churn.Delta
		degs, delta = stream.Mutate(degs, e)
		mChurnEdgesAdded.Add(int64(delta.EdgesAdded))
		mChurnEdgesRemoved.Add(int64(delta.EdgesRemoved))
		res.EdgesAdded += delta.EdgesAdded
		res.EdgesRemoved += delta.EdgesRemoved

		// Endurance coupling: the hottest rows (important set, rewritten
		// every epoch) have absorbed (e+1)·DaysPerEpoch days of the
		// production profile by now; wear composes with any base fault
		// rate inside EffectiveRate.
		epochCfg := baseCfg
		if cc.DaysPerEpoch > 0 {
			days := float64(e+1) * cc.DaysPerEpoch
			epochCfg.WearWritesPerCell = baseCfg.WearWritesPerCell +
				endurance.TotalCellWrites(ChurnProfile, 1, days)
		}
		epochFM := fault.MustNew(epochCfg)

		var dead []bool
		retired := 0
		if epochFM.Enabled() {
			needed := (len(degs) + rows - 1) / rows
			dead = epochFM.DeadGroups(needed, cells)
			retired = epochFM.Retired(w.Chip.TotalCrossbars(), cells)
		}
		if retired > prevRetired {
			mChurnRetirements.Inc()
			res.Retirements++
		}
		prevRetired = retired

		var dstats mapping.DeltaStats
		layout, dstats = layout.ApplyDelta(degs, delta.Changed, dead)
		mChurnStripesMoved.Add(int64(dstats.StripesMoved))
		res.StripesMoved += dstats.StripesMoved
		if dstats.Full {
			mChurnFullRemaps.Inc()
			res.FullRemaps++
		}

		// Refresh policy: vertex arrivals force a replan (the plan's
		// importance arrays are sized to n); otherwise accumulated drift
		// since the last refresh decides.
		drift += float64(len(delta.Changed)) / float64(len(degs))
		refreshed := delta.VerticesAdded > 0 || cc.ShouldRefresh(drift)
		if refreshed {
			if cc.Policy == churn.Adaptive {
				theta = mapping.AdaptiveTheta(avgDegree(degs))
			}
			plan = layout.UpdatePlan(theta, churnStalePeriod)
			drift = 0
			res.Refreshes++
		}

		ep := simulateChurnEpoch(w, epochFM, degs, layout, plan, retired)
		ep.Epoch = e
		ep.EdgesAdded = delta.EdgesAdded
		ep.EdgesRemoved = delta.EdgesRemoved
		ep.Vertices = len(degs)
		ep.StripesMoved = dstats.StripesMoved
		ep.FullRemap = dstats.Full
		ep.Refreshed = refreshed
		ep.Theta = theta
		ep.Retired = retired
		res.Epochs = append(res.Epochs, ep)
		if ep.Degraded {
			res.DegradedEpochs++
		}
	}
	res.FinalRetired = prevRetired
	return res, nil
}

// simulateChurnEpoch prices one post-mutation epoch the way runCore
// prices the GoPIM model — stages under the delta-maintained layout and
// plan, benefit-aware greedy allocation against the wear-shrunk pool,
// intra+inter pipeline — but unrecorded: churn runs publish only the
// churn.* counters, not per-epoch accel.* series.
func simulateChurnEpoch(w Workload, fm *fault.Model, degs []float64,
	layout *mapping.Layout, plan *mapping.UpdatePlan, retired int) ChurnEpoch {
	chip := w.Chip
	if fm.Enabled() {
		chip.WriteRetryFactor = fm.RetryFactor(chip.CrossbarCols)
	}
	n := len(degs)
	numMB := (n + w.MicroBatch - 1) / w.MicroBatch
	if numMB < 1 {
		numMB = 1
	}
	stages := stage.Build(stage.Config{
		Chip:       chip,
		Dataset:    w.Dataset,
		Deg:        graphgen.NewDegreeModel(degs),
		MicroBatch: w.MicroBatch,
		Layout:     layout,
		Plan:       plan,
	})
	originals := stage.TotalCrossbars(stages)
	budget := chip.TotalCrossbars() - originals
	if budget < 0 {
		budget = 0
	}
	req := alloc.FromStages(stages, budget, numMB)
	caps := make([]int, len(stages))
	for i := range caps {
		caps[i] = numMB * IntraSplit
	}
	req.MaxReplicas = caps
	req.RetiredCrossbars = retired
	ares := alloc.Greedy(req)
	sched := pipeline.SimulateUnrecorded(pipeline.Input{
		TimesNS:              req.TimesNS,
		Replicas:             ares.Replicas,
		MicroBatches:         numMB,
		MicroBatchesPerBatch: w.MicroBatchesPerBatch,
		Mode:                 pipeline.IntraInterBatch,
	})
	return ChurnEpoch{Degraded: ares.Degraded, MakespanNS: sched.MakespanNS}
}

func avgDegree(degs []float64) float64 {
	if len(degs) == 0 {
		return 0
	}
	var sum float64
	for _, d := range degs {
		sum += d
	}
	return sum / float64(len(degs))
}

// ChurnDaysForRetirement returns a DaysPerEpoch that makes wear-driven
// retirement land mid-run: by the final epoch the hottest rows sit at
// `margin` times the ReRAM write limit, so the lognormal wear CDF puts
// a macroscopic fraction of cells past endurance. Test and demo
// scaffolding — production configs set DaysPerEpoch from real traffic.
func ChurnDaysForRetirement(epochs int, margin float64) float64 {
	perDay := endurance.CellWritesPerEpoch(ChurnProfile, 1) *
		float64(ChurnProfile.EpochsPerRun) * ChurnProfile.RunsPerDay
	return margin * endurance.ReRAMWriteLimit / (perDay * float64(epochs))
}
