package accel

import (
	"fmt"

	"gopim/internal/churn"
	"gopim/internal/endurance"
	"gopim/internal/fault"
	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/obs"
	"gopim/internal/parallel"
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
	Vertices     int // vertex count (churn rewires edges only)
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
// incremental re-mapping (mapping.ApplyDelta, in place on the run's
// one layout) relocates only the stripes whose rank changed, the
// refresh policy decides whether the ISU plan is recomputed,
// accumulated churn writes feed the endurance model so wear retires
// crossbars mid-run, and replica allocation degrades around the
// shrinking pool instead of erroring.
//
// The loop is software-pipelined in two lanes, run each epoch as the
// two units of one parallel.For. Lane 0 prices epoch e: it updates the
// active-block terms and the layout, applies the refresh policy and
// simulates the epoch. Lane 1 draws epoch e+1's inputs: the mutation
// of epoch e's degrees and the epoch's fault model, its dead flags and
// retired count, which depend only on e+1 and those degrees. The
// stream keeps the degrees in two buffers that swap roles every epoch:
// lane 0 reads epoch e's, which lane 1 only reads too, while lane 1
// writes epoch e+1's into the other. So every epoch sees exactly the inputs
// a plain sequential loop gives it, every random draw is keyed by
// (seed, epoch), and results — and the churn.* Sim counters — are
// byte-identical at any worker count. With one worker, or with the
// pool's budget spent, For runs the lanes in order on the caller.
func RunChurn(w Workload, cc churn.Config, epochs int) (ChurnResult, error) {
	return runChurn(w, cc, epochs, nil)
}

// churnState is what runChurn carries across epochs, as its observer
// sees it after an epoch's degree update and re-mapping: the mutated
// degrees, the active-block terms, the layout and the epoch's dead
// flags (tests check the carried state against fresh builds).
type churnState struct {
	degs   []float64
	active *stage.ActiveBlocks
	layout *mapping.Layout
	dead   []bool
}

// churnDraw is one epoch's input, drawn one epoch ahead by lane 1.
type churnDraw struct {
	degs    []float64
	delta   churn.Delta
	fm      *fault.Model
	dead    []bool
	retired int
}

// runChurn is RunChurn with an observer called once per epoch, in lane
// 0, after the layout has followed the degree update.
func runChurn(w Workload, cc churn.Config, epochs int, observe func(churnState)) (ChurnResult, error) {
	if epochs < 1 {
		return ChurnResult{}, fmt.Errorf("accel: churn epochs %d must be ≥ 1", epochs)
	}
	stream, err := churn.NewStream(cc)
	if err != nil {
		return ChurnResult{}, err
	}
	cc = stream.Config()
	w.defaults()
	// DegModelFor memoizes: the stream mutates its own copies, never
	// the shared model.
	start := stream.Reset(w.Deg.DegreesByIndex)
	fm := w.faultModel()
	baseCfg := fm.Config() // zero Config when fm is nil
	if baseCfg.RetireThreshold == 0 {
		baseCfg.RetireThreshold = churnRetireThreshold
	}

	theta := w.Theta()
	isu := stageConfig(GoPIM, w, fm)
	layout, upd := isu.Layout, isu.Plan
	rows := w.Chip.CrossbarRows
	cells := w.Chip.CellsPerCrossbar()
	// The AG stages' active-block mean, carried across epochs: each
	// epoch re-prices only the vertices whose degree changed.
	active := stage.NewActiveBlocks(stage.Config{Chip: w.Chip, Deg: graphgen.NewDegreeModel(start)})

	// draw is lane 1's work for epoch e: mutate the degrees and draw
	// the epoch's fault model. Endurance coupling: the hottest rows
	// (important set, rewritten every epoch) have absorbed
	// (e+1)·DaysPerEpoch days of the production profile by then; wear
	// composes with any base fault rate inside EffectiveRate.
	draw := func(e int) churnDraw {
		var in churnDraw
		in.degs, in.delta = stream.Mutate(e)
		epochCfg := baseCfg
		if cc.DaysPerEpoch > 0 {
			days := float64(e+1) * cc.DaysPerEpoch
			epochCfg.WearWritesPerCell = baseCfg.WearWritesPerCell +
				endurance.TotalCellWrites(ChurnProfile, 1, days)
		}
		in.fm = fault.MustNew(epochCfg)
		if in.fm.Enabled() {
			needed := (len(in.degs) + rows - 1) / rows
			in.dead = in.fm.DeadGroups(needed, cells)
			in.retired = in.fm.Retired(w.Chip.TotalCrossbars(), cells)
		}
		return in
	}

	res := ChurnResult{Dataset: w.Dataset.Name, Policy: cc.Policy}
	prevRetired := 0
	if fm.Enabled() {
		prevRetired = fm.Retired(w.Chip.TotalCrossbars(), cells)
	}
	drift := 0.0
	// price is lane 0's work for epoch e on its drawn input. It only
	// reads the degrees, which the stream leaves unwritten while lane 1
	// draws the next epoch's.
	price := func(e int, in churnDraw) {
		degs, delta := in.degs, in.delta
		mChurnEdgesAdded.Add(int64(delta.EdgesAdded))
		mChurnEdgesRemoved.Add(int64(delta.EdgesRemoved))
		res.EdgesAdded += delta.EdgesAdded
		res.EdgesRemoved += delta.EdgesRemoved
		active.Update(degs, delta.Changed)

		if in.retired > prevRetired {
			mChurnRetirements.Inc()
			res.Retirements++
		}
		prevRetired = in.retired

		dstats := layout.ApplyDelta(degs, delta.Changed, in.dead)
		if observe != nil {
			observe(churnState{degs: degs, active: active, layout: layout, dead: in.dead})
		}
		mChurnStripesMoved.Add(int64(dstats.StripesMoved))
		res.StripesMoved += dstats.StripesMoved
		if dstats.Full {
			mChurnFullRemaps.Inc()
			res.FullRemaps++
		}

		// Refresh policy: accumulated drift since the last refresh
		// decides.
		drift += float64(len(delta.Changed)) / float64(len(degs))
		refreshed := cc.ShouldRefresh(drift)
		if refreshed {
			if cc.Policy == churn.Adaptive {
				theta = mapping.AdaptiveTheta(avgDegree(degs))
			}
			upd = layout.UpdatePlan(theta, isuStalePeriod)
			drift = 0
			res.Refreshes++
		}

		ep := simulateChurnEpoch(w, in.fm, degs, active, layout, upd)
		ep.Epoch = e
		ep.EdgesAdded = delta.EdgesAdded
		ep.EdgesRemoved = delta.EdgesRemoved
		ep.Vertices = len(degs)
		ep.StripesMoved = dstats.StripesMoved
		ep.FullRemap = dstats.Full
		ep.Refreshed = refreshed
		ep.Theta = theta
		ep.Retired = in.retired
		res.Epochs = append(res.Epochs, ep)
		if ep.Degraded {
			res.DegradedEpochs++
		}
	}

	in := draw(0)
	for e := 0; e < epochs; e++ {
		var ahead churnDraw
		parallel.For(2, 1, func(lo, hi int) {
			for lane := lo; lane < hi; lane++ {
				if lane == 0 {
					price(e, in)
				} else if e+1 < epochs {
					ahead = draw(e + 1)
				}
			}
		})
		in = ahead
	}
	res.FinalRetired = prevRetired
	return res, nil
}

// simulateChurnEpoch prices one post-mutation epoch through the GoPIM
// planning core, with the delta-maintained layout and update plan in
// place of a fresh ISU layout and the carried active-block terms in
// place of a fresh pass over the degrees, against the wear-shrunk pool,
// and on the true stage times (a churn run ignores PredictedTimes).
// Like the core it records nothing: churn runs publish only the
// churn.* counters, not per-epoch accel.* series.
func simulateChurnEpoch(w Workload, fm *fault.Model, degs []float64, active *stage.ActiveBlocks,
	layout *mapping.Layout, upd *mapping.UpdatePlan) ChurnEpoch {
	_, retired := applyFault(&w, fm)
	w.PredictedTimes = nil
	cfg := stage.Config{
		Chip:       w.Chip,
		Dataset:    w.Dataset,
		Deg:        graphgen.NewDegreeModel(degs),
		MicroBatch: w.MicroBatch,
		Layout:     layout,
		Plan:       upd,
	}
	p := plan(GoPIM, w, cfg, active.Build(cfg), 0, retired)
	return ChurnEpoch{Degraded: p.Alloc.Degraded, MakespanNS: p.Schedule.MakespanNS}
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
