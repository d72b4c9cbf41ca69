// Package accel assembles the substrates — stage timing, mapping,
// replica allocation, pipeline scheduling and energy accounting — into
// the six accelerator models the paper evaluates (§VII-A):
//
//	Serial        sequential execution, no pipeline, no sparsification
//	SlimGNN-like  intra-batch pipeline, space-proportional replicas,
//	              input subgraph pruning, index mapping
//	ReGraphX      intra-batch pipeline, fixed CO:AG = 1:2 replicas
//	ReFlip        intra+inter pipeline, combination-only replicas,
//	              hybrid-execution reload penalty
//	GoPIM-Vanilla intra+inter pipeline, ML-allocated replicas, no ISU
//	GoPIM         everything above plus ISU
//
// plus the ablation variants of Fig. 14 (+PP, +ISU).
// All models receive identical crossbar budgets.
package accel

import (
	"fmt"
	"math"
	"strings"

	"gopim/internal/alloc"
	"gopim/internal/energy"
	"gopim/internal/explain"
	"gopim/internal/fault"
	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/obs"
	"gopim/internal/pipeline"
	"gopim/internal/reram"
	"gopim/internal/simmemo"
	"gopim/internal/stage"
	"gopim/internal/trace"
)

// Model-level metrics. Everything recorded here is a pure function of
// the workload, so it all lives on the deterministic Sim clock. The
// unlabelled aggregates are pre-registered (no allocation when
// observability is off); the per-(dataset, model) and per-stage series
// need dynamically built names, so they are gated on obs.Enabled().
var (
	mRuns = obs.NewCounter("accel.simulations", obs.Sim,
		"accelerator model runs")
	mMakespan = obs.NewDistribution("accel.makespan_ns", obs.Sim,
		"simulated makespan per run")
	mEnergy = obs.NewDistribution("accel.energy_pj", obs.Sim,
		"total energy per run")
	mCrossbars = obs.NewDistribution("accel.crossbars_used", obs.Sim,
		"crossbars used incl. replicas per run")

	// Fault-injection counters. All four stay at zero when fault
	// injection is off (the snapshot writer drops zero-count metrics,
	// so default-run snapshots are byte-identical to the pre-fault
	// ones), and they are pure functions of (workload, fault seed), so
	// they live on the Sim clock.
	mFaultyCells = obs.NewCounter("accel.faulty_cells", obs.Sim,
		"expected stuck cells across the crossbars each run occupies")
	mWriteRetries = obs.NewCounter("accel.write_retries", obs.Sim,
		"extra program-verify iterations charged to write-verify retries per run")
	mRetired = obs.NewCounter("accel.crossbars_retired", obs.Sim,
		"crossbars excluded from the replica pool by fault retirement")
	mAllocDegraded = obs.NewCounter("accel.alloc_degraded", obs.Sim,
		"allocations that ran against a fault-shrunk replica pool")
)

// recordReport publishes the per-model metrics for one Run.
func recordReport(r Report) {
	mRuns.Inc()
	mMakespan.Observe(r.MakespanNS)
	mEnergy.Observe(r.EnergyPJ())
	mCrossbars.Observe(float64(r.CrossbarsUsed))
	if !obs.Enabled() {
		return
	}
	kv := obs.LabelSuffix("dataset", r.Dataset, "model", r.Kind.String())
	obs.NewDistribution("accel.makespan_ns"+kv, obs.Sim,
		"simulated makespan for this dataset and model").Observe(r.MakespanNS)
	obs.NewDistribution("accel.energy_pj"+kv, obs.Sim,
		"total energy for this dataset and model").Observe(r.EnergyPJ())
	obs.NewDistribution("accel.crossbars_used"+kv, obs.Sim,
		"crossbars used for this dataset and model").Observe(float64(r.CrossbarsUsed))
	obs.NewDistribution("accel.update_frac"+kv, obs.Sim,
		"steady-state fraction of vertex rows rewritten per epoch (1 = no ISU)").
		Observe(r.UpdateFraction)
	for i, name := range r.StageNames {
		skv := obs.LabelSuffix("dataset", r.Dataset, "model", r.Kind.String(),
			"stage", name)
		obs.NewDistribution("accel.stage_idle_frac"+skv, obs.Sim,
			"per-stage idle fraction (busy/idle split of Figs. 4/15)").
			Observe(r.IdleFrac[i])
	}
	// Critical-path attribution: re-simulate the schedule at event
	// level (unrecorded, so trace.* series stay put) and publish which
	// stages bind the makespan and where the idle time sits. Both are
	// pure functions of the workload, and the analyzer guards every
	// division, so the series are Sim-safe by construction.
	ex := explain.Analyze(TraceInput(r), r.StageNames, explain.Options{})
	for i, name := range r.StageNames {
		skv := obs.LabelSuffix("dataset", r.Dataset, "model", r.Kind.String(),
			"stage", name)
		obs.NewDistribution("accel.crit_share"+skv, obs.Sim,
			"fraction of the makespan this stage spends on the critical path").
			Observe(ex.Stages[i].CritShare)
	}
	for _, class := range explain.BubbleClasses {
		var ns float64
		for _, s := range ex.Stages {
			ns += s.BubbleNS(class)
		}
		ckv := obs.LabelSuffix("dataset", r.Dataset, "model", r.Kind.String(),
			"class", class)
		obs.NewDistribution("accel.bubble_ns"+ckv, obs.Sim,
			"replica-lane idle time in this bubble class, summed over stages").
			Observe(ns)
	}
}

// TraceInput builds the event-level simulation input that reproduces a
// report's schedule at replica granularity: true stage times, the
// allocated replicas, the epoch's micro-batches, and the barrier
// placement implied by the model's pipeline mode (Serial = barrier
// after every micro-batch; IntraBatch models = barrier per batch
// window; intra+inter models = no barrier).
func TraceInput(r Report) trace.Input {
	in := trace.Input{
		TimesNS:      r.StageTimesNS,
		Replicas:     r.Replicas,
		MicroBatches: r.MicroBatches,
	}
	switch r.Kind {
	case Serial:
		in.MicroBatchesPerBatch = 1
	case SlimGNNLike, ReGraphX, Pipelayer:
		in.MicroBatchesPerBatch = r.MicroBatchesPerBatch
	}
	return in
}

// Kind names an accelerator model.
type Kind int

const (
	Serial Kind = iota
	SlimGNNLike
	ReGraphX
	ReFlip
	GoPIMVanilla
	GoPIM
	// PlusPP is the Fig. 14 "+PP" ablation: intra+inter pipelining with
	// no replicas and no ISU. It is also the "Naive" pipelined baseline
	// of Fig. 15.
	PlusPP
	// PlusISU is the Fig. 14 "+ISU" ablation: +PP plus interleaved
	// selective updating, still without replicas.
	PlusISU
	// Pipelayer is the equal-replica strawman the paper cites
	// (Pipelayer "uses the same number of replicas for all stages",
	// §I): intra-batch pipelining with a uniform replica count.
	Pipelayer
)

func (k Kind) String() string {
	switch k {
	case Serial:
		return "Serial"
	case SlimGNNLike:
		return "SlimGNN-like"
	case ReGraphX:
		return "ReGraphX"
	case ReFlip:
		return "ReFlip"
	case GoPIMVanilla:
		return "GoPIM-Vanilla"
	case GoPIM:
		return "GoPIM"
	case PlusPP:
		return "+PP"
	case PlusISU:
		return "+ISU"
	case Pipelayer:
		return "Pipelayer"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllBaselines lists the models of the headline comparison (Fig. 13).
func AllBaselines() []Kind {
	return []Kind{Serial, SlimGNNLike, ReGraphX, ReFlip, GoPIMVanilla, GoPIM}
}

// SlimGNNPruneFraction is the input-subgraph pruning rate of the
// SlimGNN-like baseline.
const SlimGNNPruneFraction = 0.3

// ReFlipAGSpeedup is the aggregation-MVM speedup of ReFlip's
// row/column hybrid execution (operand reuse across vertices), paid
// for with the reload write penalty.
const ReFlipAGSpeedup = 8.0

// IntraSplit is how many ways one micro-batch's work can usefully be
// split across replicas of the same stage before input distribution
// and result gathering serialise the copies.
const IntraSplit = 32

// Workload is one dataset × model × hardware configuration to run.
type Workload struct {
	Chip    reram.Chip
	Dataset graphgen.Dataset
	// Deg is the graph degree model; nil synthesises it from the
	// dataset's paper statistics with Seed.
	Deg  *graphgen.DegreeModel
	Seed int64
	// MicroBatch defaults to 64 (paper §VII-A).
	MicroBatch int
	// MicroBatchesPerBatch bounds intra-batch pipelines (default 8).
	MicroBatchesPerBatch int
	// PredictedTimes, when set, replaces profiled stage times as the
	// allocator's input (GoPIM's ML path). Evaluation always uses the
	// true times.
	PredictedTimes []float64
	// ThetaOverride forces the selective-updating threshold for
	// GoPIM-family models (0 = the paper's adaptive θ).
	ThetaOverride float64
	// Fault injects ReRAM faults (internal/fault): write-verify retries
	// stretch row programming, retired crossbars shrink the replica
	// pool, and ISU striping skips dead crossbars. Nil consults the
	// process-wide fault.Default(); a disabled model leaves every code
	// path bit-identical to the fault-free simulator.
	Fault *fault.Model
}

// degCache memoizes synthesized degree models by (dataset, seed):
// every model kind simulated on the same dataset re-derives the same
// power-law weights, and the downstream consumers (stage.Build,
// mapping, alloc) only ever read the model.
var degCache = simmemo.NewCache("degmodel", 128)

func (w *Workload) defaults() {
	if w.MicroBatch == 0 {
		w.MicroBatch = 64
	}
	if w.MicroBatchesPerBatch == 0 {
		w.MicroBatchesPerBatch = 8
	}
	if w.Chip.Tiles == 0 {
		w.Chip = reram.DefaultChip()
	}
	if w.Deg == nil {
		w.Deg = DegModelFor(w.Dataset, w.Seed)
	}
}

// DegModelFor returns the (memoized) synthesized degree model for a
// dataset and seed. The returned model is shared: treat it as
// read-only.
func DegModelFor(d graphgen.Dataset, seed int64) *graphgen.DegreeModel {
	if !simmemo.Enabled() {
		return d.SynthDegreeModel(seed)
	}
	key := fmt.Sprintf("%+v|%d", d, seed)
	return simmemo.Do(degCache, key, func() *graphgen.DegreeModel {
		return d.SynthDegreeModel(seed)
	})
}

// Report is the outcome of simulating one accelerator on one workload.
type Report struct {
	Kind       Kind
	Dataset    string
	MakespanNS float64
	Energy     energy.Breakdown
	// Replicas per stage (1 = original mapping only).
	Replicas []int
	// StageNames aligns with Replicas and IdleFrac.
	StageNames []string
	// StageTimesNS are the true per-micro-batch single-replica stage
	// times the schedule used.
	StageTimesNS []float64
	// CrossbarsPerStage is the single-replica footprint per stage.
	CrossbarsPerStage []int
	// CrossbarsUsed counts all crossbars incl. replicas.
	CrossbarsUsed int
	// IdleFrac per stage (paper Figs. 4/15).
	IdleFrac []float64
	// MicroBatches is B for this run (one epoch sweep).
	MicroBatches int
	// MicroBatchesPerBatch is the intra-batch window the workload ran
	// with (relevant to barrier placement in IntraBatch-mode models).
	MicroBatchesPerBatch int
	// UpdateFraction is the steady-state fraction of vertex rows
	// rewritten per epoch (1 without ISU).
	UpdateFraction float64
	// WriteRetryFactor is the expected program-verify iteration count
	// per row write relative to the fault-free pass (1 without faults).
	WriteRetryFactor float64
	// CrossbarsRetired is how many crossbars fault retirement removed
	// from the replica pool (0 without faults).
	CrossbarsRetired int
	// AllocDegraded reports that the replica allocation ran against a
	// fault-shrunk pool.
	AllocDegraded bool
}

// EnergyPJ is shorthand for the total energy.
func (r Report) EnergyPJ() float64 { return r.Energy.TotalPJ() }

// runCache memoizes whole accelerator runs keyed on (kind, workload).
// The experiments grids re-run the same {dataset, model} cells across
// figures (fig13/14, tab6/7, fig16's micro-batch sweep, the cora
// baselines); each distinct cell simulates once per process and
// replays after. 512 entries dwarfs `gopim all`'s distinct-cell count.
var runCache = simmemo.NewCache("accelrun", 512)

// runMemo is the cached outcome of one run: the report plus the one
// input recordFault cannot recompute from it (the stages' per-micro-
// batch write-row sum).
type runMemo struct {
	rep       Report
	writeRows float64
}

// Run simulates one accelerator model on a workload: build stages
// under the model's mapping policy, allocate replicas under its
// policy, schedule the pipeline, and account energy.
//
// Runs whose degree model is synthesized (Deg nil — every experiments
// caller) are memoized on the full input tuple; callers passing a
// custom Deg (serve's custom graph stats) always simulate fresh, since
// the model's content is not part of any key. Hit or miss, the metric
// effect is identical: pipeline metrics replay via RecordSim and the
// fault/report records are recomputed from the report itself, so Sim
// snapshots are byte-identical with the memo on or off. Reports from
// cache share slices — treat Report fields as read-only.
func Run(kind Kind, w Workload) Report {
	memoizable := w.Deg == nil && simmemo.Enabled()
	w.defaults()
	fm := w.Fault
	if fm == nil {
		fm = fault.Default()
	}
	var out *runMemo
	if memoizable {
		out = simmemo.Do(runCache, runKey(kind, w, fm), func() *runMemo {
			rep, writeRows := runCore(kind, w, fm)
			return &runMemo{rep: rep, writeRows: writeRows}
		})
	} else {
		rep, writeRows := runCore(kind, w, fm)
		out = &runMemo{rep: rep, writeRows: writeRows}
	}
	rep := out.rep
	pipeline.RecordSim(len(rep.StageTimesNS), rep.MicroBatches, rep.MakespanNS)
	if fm.Enabled() {
		recordFault(fm, rep, out.writeRows, w.Chip)
	}
	recordReport(rep)
	return rep
}

// runKey fingerprints every Run input that can influence the report.
// Only called with a synthesized degree model, whose content is fully
// determined by (Dataset, Seed); fault behaviour is fully determined
// by the model's Config.
func runKey(kind Kind, w Workload, fm *fault.Model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%+v|%+v|%d|%d|%d|%x", kind, w.Chip, w.Dataset,
		w.Seed, w.MicroBatch, w.MicroBatchesPerBatch, math.Float64bits(w.ThetaOverride))
	for _, t := range w.PredictedTimes {
		fmt.Fprintf(&b, ",%x", math.Float64bits(t))
	}
	if fm.Enabled() {
		fmt.Fprintf(&b, "|f%+v", fm.Config())
	}
	return b.String()
}

// runCore is the simulation proper. It records nothing: Run replays
// the metric effect identically for fresh and cached outcomes.
func runCore(kind Kind, w Workload, fm *fault.Model) (Report, float64) {
	retryFactor := 1.0
	retired := 0
	if fm.Enabled() {
		// Every row program becomes a program-verify loop; stretching
		// ProgramRowNS propagates the retries into both the vertex-update
		// wall time (stage) and the per-row write energy (energy).
		retryFactor = fm.RetryFactor(w.Chip.CrossbarCols)
		w.Chip.WriteRetryFactor = retryFactor
		retired = fm.Retired(w.Chip.TotalCrossbars(), w.Chip.CellsPerCrossbar())
	}
	n := w.Deg.N
	numMB := (n + w.MicroBatch - 1) / w.MicroBatch
	if numMB < 1 {
		numMB = 1
	}

	cfg := stage.Config{
		Chip:       w.Chip,
		Dataset:    w.Dataset,
		Deg:        w.Deg,
		MicroBatch: w.MicroBatch,
	}
	updateFraction := 1.0
	switch kind {
	case SlimGNNLike:
		cfg.PruneEdgeFraction = SlimGNNPruneFraction
	case ReFlip:
		cfg.ReloadPenalty = true
		cfg.AGMVMSpeedup = ReFlipAGSpeedup
	case GoPIM, PlusISU:
		theta := w.ThetaOverride
		if theta == 0 {
			theta = w.Dataset.AdaptiveTheta()
		}
		degs := w.Deg.DegreesByIndex
		if fm.Enabled() {
			// Stripe around retired crossbars: the logical degree mix is
			// identical, so the timing model is untouched, but ISU
			// updates land on healthy cells.
			needed := (len(degs) + w.Chip.CrossbarRows - 1) / w.Chip.CrossbarRows
			cfg.Layout = mapping.InterleavedLayoutHealthy(degs, w.Chip.CrossbarRows,
				fm.DeadGroups(needed, w.Chip.CellsPerCrossbar()))
		} else {
			cfg.Layout = mapping.InterleavedLayout(degs, w.Chip.CrossbarRows)
		}
		cfg.Plan = cfg.Layout.UpdatePlan(theta, 20)
		updateFraction = cfg.Plan.AvgUpdateFraction()
	}
	stages := stage.Build(cfg)

	// Shared crossbar budget: whatever the chip has beyond the original
	// mappings. Fault-retired crossbars come out of this free pool (the
	// original mappings are re-placed on healthy crossbars), via the
	// Request's RetiredCrossbars so the policies clamp gracefully.
	originals := stage.TotalCrossbars(stages)
	budget := w.Chip.TotalCrossbars() - originals
	if budget < 0 {
		budget = 0
	}

	mode := pipeline.IntraInterBatch
	switch kind {
	case Serial:
		mode = pipeline.Serial
	case SlimGNNLike, ReGraphX, Pipelayer:
		mode = pipeline.IntraBatch
	}

	// Replica usefulness cap: in-flight micro-batches (the pipelining
	// window) times the intra-micro-batch split factor. Splitting one
	// micro-batch across copies stops paying off quickly (input
	// distribution and result gathering serialise), so the split factor
	// is IntraSplit (8), which also reproduces the scale of the paper's
	// Table VI replica counts (hundreds, ≈ 9× the micro-batch count).
	window := numMB
	switch kind {
	case Serial:
		window = 1
	case SlimGNNLike, ReGraphX, Pipelayer:
		window = w.MicroBatchesPerBatch
	}
	caps := make([]int, len(stages))
	for i := range caps {
		caps[i] = window * IntraSplit
	}

	req := alloc.FromStages(stages, budget, numMB)
	req.MaxReplicas = caps
	req.RetiredCrossbars = retired
	allocTimes := req.TimesNS
	if w.PredictedTimes != nil {
		if len(w.PredictedTimes) != len(stages) {
			panic(fmt.Sprintf("accel: %d predicted times for %d stages", len(w.PredictedTimes), len(stages)))
		}
		allocTimes = w.PredictedTimes
	}

	var res alloc.Result
	switch kind {
	case Serial, PlusPP, PlusISU:
		res = alloc.Result{Replicas: onesFor(stages), Degraded: retired > 0 && budget > 0}
	case SlimGNNLike:
		res = alloc.SpaceProportional(req)
	case Pipelayer:
		res = alloc.EqualSplit(req)
	case ReGraphX:
		res = alloc.FixedRatio(req, 1, 2)
	case ReFlip:
		// ReFlip replicates combination stages only; like any real
		// design it stops when further copies stop helping, so restrict
		// the benefit-aware greedy to CO stages rather than flooding
		// the chip with idle weight copies.
		coReq := req
		coReq.Replicable = append([]bool(nil), req.Replicable...)
		for i, k := range req.Kinds {
			if k != stage.Combination {
				coReq.Replicable[i] = false
			}
		}
		res = alloc.Greedy(coReq)
	case GoPIMVanilla, GoPIM:
		mlReq := req
		mlReq.TimesNS = allocTimes
		res = alloc.Greedy(mlReq)
	default:
		panic(fmt.Sprintf("accel: unknown kind %v", kind))
	}

	sched := pipeline.SimulateUnrecorded(pipeline.Input{
		TimesNS:              req.TimesNS, // true times, always
		Replicas:             res.Replicas,
		MicroBatches:         numMB,
		MicroBatchesPerBatch: w.MicroBatchesPerBatch,
		Mode:                 mode,
	})

	crossbarsUsed := originals + res.Used
	replicaXB := make([]int, len(stages))
	for i, s := range stages {
		replicaXB[i] = (res.Replicas[i] - 1) * s.Crossbars
	}
	eng := energy.ComputeSchedule(w.Chip, stages, numMB, sched.MakespanNS,
		originals, replicaXB, sched.BusyNS)

	names := make([]string, len(stages))
	xbs := make([]int, len(stages))
	for i, s := range stages {
		names[i] = s.Name
		xbs[i] = s.Crossbars
	}
	rep := Report{
		Kind:                 kind,
		Dataset:              w.Dataset.Name,
		StageTimesNS:         req.TimesNS,
		MakespanNS:           sched.MakespanNS,
		Energy:               eng,
		Replicas:             res.Replicas,
		StageNames:           names,
		CrossbarsPerStage:    xbs,
		CrossbarsUsed:        crossbarsUsed,
		IdleFrac:             sched.IdleFrac,
		MicroBatches:         numMB,
		MicroBatchesPerBatch: w.MicroBatchesPerBatch,
		UpdateFraction:       updateFraction,
		WriteRetryFactor:     retryFactor,
		CrossbarsRetired:     retired,
		AllocDegraded:        res.Degraded,
	}
	var writeRows float64
	for _, s := range stages {
		writeRows += s.WriteRows
	}
	return rep, writeRows
}

// recordFault publishes the fault-injection counters for one run.
// Only called with injection active, so all four metrics stay at zero
// — and out of snapshots — on fault-free runs. writeRows is the
// stages' per-micro-batch write-row sum (carried through the run memo
// so replays charge the same retries).
func recordFault(fm *fault.Model, rep Report, writeRows float64, chip reram.Chip) {
	mFaultyCells.Add(fm.ExpectedStuckCells(rep.CrossbarsUsed, chip.CellsPerCrossbar()))
	// Extra program-verify iterations: each of the epoch's row writes
	// runs (factor−1)·WriteVerifyCycles additional pulses.
	writeRows *= float64(rep.MicroBatches)
	mWriteRetries.Add(int64(math.Round(writeRows *
		(rep.WriteRetryFactor - 1) * float64(chip.WriteVerifyCycles))))
	mRetired.Add(int64(rep.CrossbarsRetired))
	if rep.AllocDegraded {
		mAllocDegraded.Inc()
	}
}

func onesFor(stages []stage.Stage) []int {
	r := make([]int, len(stages))
	for i := range r {
		r[i] = 1
	}
	return r
}

// Speedup returns base's makespan divided by other's.
func Speedup(base, other Report) float64 {
	return base.MakespanNS / other.MakespanNS
}

// EnergySaving returns base's energy divided by other's.
func EnergySaving(base, other Report) float64 {
	return base.EnergyPJ() / other.EnergyPJ()
}
