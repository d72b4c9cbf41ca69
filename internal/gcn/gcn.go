// Package gcn implements full GCN training in software — forward and
// backward passes over Combination (H·W) and Aggregation (Â·C) stages
// with ReLU activations — plus the ISU staleness semantics of GoPIM's
// selective vertex updating: the feature rows aggregation reads for
// non-important vertices come from a stale snapshot that refreshes
// every StalePeriod epochs, exactly as rows left unwritten on a ReRAM
// crossbar would (paper §VI).
//
// The package produces the accuracy numbers of paper Table V and the
// θ-sensitivity curves of Fig. 16(a)/(b). Node-classification tasks
// use softmax cross-entropy; link-prediction tasks score vertex pairs
// by embedding dot products with logistic loss.
//
// The training loop is allocation-free in steady state: a per-run
// workspace (see workspace) preallocates every forward/backward
// intermediate once and the epoch loop reuses them, so the only
// per-epoch heap traffic is what the Go runtime itself needs. All
// buffer reuse preserves the exact floating-point accumulation order
// of the original allocate-per-epoch code, so results are
// byte-identical at any worker count.
package gcn

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"

	"gopim/internal/fault"
	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/obs"
	"gopim/internal/quant"
	"gopim/internal/simmemo"
	"gopim/internal/sparsemat"
	"gopim/internal/tensor"
)

// Training metrics. Run, epoch and row-write counts depend only on the
// configuration and the deterministic per-run RNG stream, so they stay
// on the Sim clock; the per-epoch timer measures real scheduling and is
// Wall. gcn.rows_rewritten is the ISU write-traffic figure: without a
// plan (or on the first epoch) every combined-feature row is written,
// with a plan only the rows due this epoch are — the ratio against
// gcn.rows_total is the write reduction selective updating buys.
// The two memstats gauges snapshot the Go heap after each training run;
// gauges live on the Wall clock, so they never enter strict Sim diffs.
var (
	mTrainRuns = obs.NewCounter("gcn.train_runs", obs.Sim,
		"GCN training runs started")
	mEpochs = obs.NewCounter("gcn.epochs", obs.Sim,
		"training epochs executed")
	mRowsRewritten = obs.NewCounter("gcn.rows_rewritten", obs.Sim,
		"combined-feature rows written to aggregation crossbars")
	mRowsTotal = obs.NewCounter("gcn.rows_total", obs.Sim,
		"combined-feature rows that a no-ISU run would have written")
	mEpochTime = obs.NewTimer("gcn.epoch_ns",
		"wall time per training epoch")
	// mStuckElems counts matrix elements pinned by fault-injection
	// stuck masks. Zero (and thus absent from snapshots) without
	// faults; a pure function of (config, fault seed), so Sim-clock.
	mStuckElems = obs.NewCounter("gcn.stuck_elements", obs.Sim,
		"weight/feature matrix elements landing on stuck cell slices")
	mHeapAlloc = obs.NewGauge("gcn.heap_alloc_bytes",
		"live heap bytes sampled after the last training run")
	mGCCount = obs.NewGauge("gcn.gc_count",
		"cumulative runtime GC cycles sampled after the last training run")
)

// Config controls one training run.
type Config struct {
	Epochs int
	// LR defaults to the dataset's Table IV learning rate when 0.
	LR float64
	// Dropout is the hidden-activation drop probability (Table IV);
	// negative means "use the dataset's value".
	Dropout float64
	Seed    int64
	// Plan enables ISU: non-important vertices' combined features are
	// served stale between refresh epochs. Nil trains exactly
	// (GoPIM-Vanilla).
	Plan *mapping.UpdatePlan
	// QuantBits, when ≥ 2, quantises everything the crossbars store —
	// weights after every gradient step and combined feature rows when
	// written — to the given fixed-point width (Table II: 16).
	// 0 trains in full float64.
	QuantBits int
	// Fault injects stuck-at cell faults (internal/fault) into
	// everything written to the array: weight matrices after every
	// gradient step and combined feature rows as they land on
	// aggregation crossbars. Nil consults the process-wide
	// fault.Default(). Injection implies quantisation (stuck cells pin
	// physical slices), so QuantBits below 2 is raised to 16 while a
	// fault model is active; a disabled model changes nothing.
	Fault *fault.Model
}

// simCounts accumulates every Sim-clock increment of one training run
// so the run can be memoized: a memo hit applies the stored counts and
// leaves the registry exactly as re-running the training would have.
// (The per-epoch timer and heap gauges are Wall-clock and deliberately
// not captured — wall telemetry reflects what actually executed.)
type simCounts struct {
	trainRuns, epochs        int64
	rowsRewritten, rowsTotal int64
	stuckElems               int64
}

// apply flushes the counts into the Sim registry. Called exactly once
// per Train/TrainMemo call — after a fresh run and on every memo hit —
// so counter totals are identical with the memo on or off.
func (c *simCounts) apply() {
	mTrainRuns.Add(c.trainRuns)
	mEpochs.Add(c.epochs)
	mRowsRewritten.Add(c.rowsRewritten)
	mRowsTotal.Add(c.rowsTotal)
	if c.stuckElems != 0 {
		mStuckElems.Add(c.stuckElems)
	}
}

// Result reports a training run.
type Result struct {
	// Accuracy is test accuracy for node tasks and the paired
	// ranking accuracy (pos > neg) for link tasks.
	Accuracy float64
	// TrainLoss per epoch.
	TrainLoss []float64
	// UpdatedRowFraction is the mean fraction of vertex rows rewritten
	// per epoch (1.0 without a plan) — the write-traffic reduction ISU
	// buys.
	UpdatedRowFraction float64
}

// Model is a trained GCN: one weight matrix per layer.
type Model struct {
	Weights []*tensor.Matrix
	// Embeddings is the final-layer output for every vertex.
	Embeddings *tensor.Matrix
}

// adamState is a minimal Adam optimiser for a set of weight matrices.
// Moment buffers are allocated once per run and updated in place.
type adamState struct {
	lr   float64
	t    int
	m, v []*tensor.Matrix
}

func newAdam(lr float64, ws []*tensor.Matrix) *adamState {
	s := &adamState{lr: lr}
	for _, w := range ws {
		s.m = append(s.m, tensor.New(w.Rows, w.Cols))
		s.v = append(s.v, tensor.New(w.Rows, w.Cols))
	}
	return s
}

func (s *adamState) step(ws, grads []*tensor.Matrix) {
	const b1, b2, eps = 0.9, 0.999, 1e-8
	s.t++
	// 1-b1 and 1-b2 fold as untyped constants (to 0.1 and 0.001
	// exactly rounded), as in the historic loop; see tensor.AdamCoef.
	k := tensor.AdamCoef{
		B1: b1, OneMinusB1: 1 - b1,
		B2: b2, OneMinusB2: 1 - b2,
		C1: 1 - math.Pow(b1, float64(s.t)),
		C2: 1 - math.Pow(b2, float64(s.t)),
		LR: s.lr, Eps: eps,
	}
	for i, w := range ws {
		tensor.AdamStep(w.Data, grads[i].Data, s.m[i].Data, s.v[i].Data, &k)
	}
}

// workspace owns every matrix the training hot loop touches. It is
// sized once per Train call from the layer dimensions and reused
// across all epochs; the forward/backward methods below write into
// these buffers instead of allocating. Lifetime rule: buffers are
// valid from one forward call until the next forward call overwrites
// them — Train consumes each epoch's gradients (opt.step) before the
// next forward, and the test-facing free functions build a transient
// workspace per call so their results stay independently owned.
type workspace struct {
	adj  *sparsemat.CSR // Â
	adjT *sparsemat.CSR // Âᵀ, for the row-parallel backward aggregation

	// Forward buffers, per layer l (shapes n × dims[l+1]).
	combined   []*tensor.Matrix
	aggregated []*tensor.Matrix
	maskBuf    []*tensor.Matrix // nil for the last layer
	hidden     []*tensor.Matrix // nil for the last layer

	// Backward buffers.
	dC    []*tensor.Matrix // n × dims[l+1]: Âᵀ·dA
	dIn   []*tensor.Matrix // n × dims[l]: dC·Wᵀ flowing into layer l-1; nil for l == 0
	grads []*tensor.Matrix // dims[l] × dims[l+1]
	// wT[l] (l ≥ 1) is the dims[l+1] × dims[l] scratch W_lᵀ; all of
	// them share one backing array sized for the largest, since each
	// is consumed before the next is built.
	wT []*tensor.Matrix

	// Loss scratch (n × dims[last]).
	dOut  *tensor.Matrix
	probs *tensor.Matrix

	// Fault-injection state: stuck[l] pins cells of the combined
	// feature rows written to layer l's aggregation crossbars
	// (nil per layer — and nil entirely — when no faults). The
	// masks are applied exactly where rows land on the array, so
	// the fault-free path is structurally unchanged.
	stuck      []*fault.Mask
	stuckBPC   int // bits per physical cell
	stuckCells int // cells per stored value

	// counts accumulates the run's Sim increments for memo replay.
	counts simCounts

	fw forwardState
}

// newWorkspace preallocates all training intermediates. dims is the
// layer width vector input → hidden… → output (len = layers+1); n is
// the vertex count. adjT may be nil when only the forward pass will
// run; backward fills it lazily via Transpose.
func newWorkspace(adj, adjT *sparsemat.CSR, n int, dims []int) *workspace {
	layers := len(dims) - 1
	ws := &workspace{
		adj:        adj,
		adjT:       adjT,
		combined:   make([]*tensor.Matrix, layers),
		aggregated: make([]*tensor.Matrix, layers),
		maskBuf:    make([]*tensor.Matrix, layers),
		hidden:     make([]*tensor.Matrix, layers),
		dC:         make([]*tensor.Matrix, layers),
		dIn:        make([]*tensor.Matrix, layers),
		grads:      make([]*tensor.Matrix, layers),
		wT:         make([]*tensor.Matrix, layers),
		dOut:       tensor.New(n, dims[layers]),
		probs:      tensor.New(n, dims[layers]),
	}
	wTSize := 0
	for l := 1; l < layers; l++ {
		wTSize = max(wTSize, dims[l]*dims[l+1])
	}
	wTBuf := make([]float64, wTSize)
	for l := 0; l < layers; l++ {
		ws.combined[l] = tensor.New(n, dims[l+1])
		ws.aggregated[l] = tensor.New(n, dims[l+1])
		if l+1 < layers {
			ws.maskBuf[l] = tensor.New(n, dims[l+1])
			ws.hidden[l] = tensor.New(n, dims[l+1])
		}
		if l > 0 {
			ws.dIn[l] = tensor.New(n, dims[l])
			ws.wT[l] = &tensor.Matrix{Rows: dims[l+1], Cols: dims[l], Data: wTBuf[:dims[l]*dims[l+1]]}
		}
		ws.dC[l] = tensor.New(n, dims[l+1])
		ws.grads[l] = tensor.New(dims[l], dims[l+1])
	}
	ws.fw = forwardState{
		ws:         ws,
		inputs:     make([]*tensor.Matrix, layers),
		combined:   make([]*tensor.Matrix, layers),
		aggregated: make([]*tensor.Matrix, layers),
		masks:      make([]*tensor.Matrix, layers),
	}
	return ws
}

// layerDims reconstructs the width vector from an input matrix and the
// weight stack (used by the test-facing free functions).
func layerDims(x *tensor.Matrix, weights []*tensor.Matrix) []int {
	dims := make([]int, 0, len(weights)+1)
	dims = append(dims, x.Cols)
	for _, w := range weights {
		dims = append(dims, w.Cols)
	}
	return dims
}

// Train runs GCN training on a synthetic instance and returns the
// final test metric.
func Train(inst *graphgen.Instance, cfg Config) Result {
	res, counts := trainCounted(inst, cfg)
	counts.apply()
	return res
}

// trainOutcome is what the training memo stores: the result plus the
// Sim-counter deltas needed to replay a hit.
type trainOutcome struct {
	res    Result
	counts simCounts
}

// trainCache memoizes whole training runs keyed on (instance, config).
// 512 entries holds every distinct training configuration `gopim all`
// produces many times over; see the simmemo capacity contract.
var trainCache = simmemo.NewCache("train", 512)

// TrainMemo is Train with sweep memoization: instKey must uniquely
// identify the instance's content (two instances sharing a key must be
// byte-identical — synthesis is deterministic in (Dataset, seed,
// maxVertices), so a fingerprint of those suffices). Repeat calls with
// an equal (instKey, cfg) pair reuse the previous Result and replay
// its Sim-counter deltas, so snapshots are byte-identical with the
// memo on or off. An empty instKey, or the memo layer being disabled,
// falls back to a plain Train.
func TrainMemo(instKey string, inst *graphgen.Instance, cfg Config) Result {
	if instKey == "" || !simmemo.Enabled() {
		return Train(inst, cfg)
	}
	out := simmemo.Do(trainCache, instKey+"|"+cfg.fingerprint(), func() *trainOutcome {
		res, counts := trainCounted(inst, cfg)
		return &trainOutcome{res: res, counts: *counts}
	})
	out.counts.apply()
	return out.res
}

// fingerprint renders every Result-influencing Config field (the memo
// key's config half).
func (cfg Config) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "e%d|lr%x|do%x|s%d|q%d",
		cfg.Epochs, math.Float64bits(cfg.LR), math.Float64bits(cfg.Dropout),
		cfg.Seed, cfg.QuantBits)
	if p := cfg.Plan; p != nil {
		h := fnv.New64a()
		for _, imp := range p.Important {
			if imp {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		fmt.Fprintf(&b, "|p%x:%d:%d:%x",
			math.Float64bits(p.Theta), p.StalePeriod, len(p.Important), h.Sum64())
	}
	fm := cfg.Fault
	if fm == nil {
		fm = fault.Default()
	}
	if fm.Enabled() {
		fmt.Fprintf(&b, "|f%+v", fm.Config())
	}
	return b.String()
}

// trainCounted is the training loop proper. It touches the Sim-metric
// registry only through ws.counts, which the caller applies — that
// indirection is what makes whole runs memoizable without skewing a
// single counter.
func trainCounted(inst *graphgen.Instance, cfg Config) (Result, *simCounts) {
	if cfg.Epochs < 1 {
		panic(fmt.Sprintf("gcn: epochs %d must be ≥ 1", cfg.Epochs))
	}
	d := inst.Dataset
	lr := cfg.LR
	if lr == 0 {
		lr = d.LearningRate
	}
	dropout := cfg.Dropout
	if dropout < 0 {
		dropout = d.Dropout
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Â and Âᵀ are cached on the Graph: experiment sweeps train many
	// configurations on the same instance and the normalisation never
	// changes.
	adj := inst.Graph.NormAdj()
	adjT := inst.Graph.NormAdjT()

	// Layer dims: input → hidden… → output. Node tasks map the final
	// layer onto the class count.
	dims := []int{inst.Features.Cols}
	for l := 1; l <= d.Layers; l++ {
		w := d.HiddenCh
		if l == d.Layers {
			if d.Task == graphgen.NodeClassification {
				w = d.NumClasses
			} else {
				w = d.OutputCh
			}
		}
		dims = append(dims, w)
	}
	weights := make([]*tensor.Matrix, d.Layers)
	for l := range weights {
		weights[l] = tensor.NewGlorot(rng, dims[l], dims[l+1])
	}
	opt := newAdam(lr, weights)
	ws := newWorkspace(adj, adjT, inst.Features.Rows, dims)

	// Fault injection: stuck-at masks for everything the run writes to
	// the array. Weight masks are applied here after each epoch's
	// quantisation; feature masks ride on the workspace and apply where
	// rows land on aggregation crossbars. Stuck cells damage physical
	// bit slices, so injection forces quantisation on (Table II width)
	// if the caller left it off.
	fm := cfg.Fault
	if fm == nil {
		fm = fault.Default()
	}
	quantBits := cfg.QuantBits
	var wMasks []*fault.Mask
	if fm.Enabled() {
		if quantBits < 2 {
			quantBits = 16
		}
		// DefaultChip stores 2 bits per cell.
		ws.stuckBPC = 2
		ws.stuckCells = quant.CellsPerValue(quantBits, ws.stuckBPC)
		wMasks = make([]*fault.Mask, d.Layers)
		ws.stuck = make([]*fault.Mask, d.Layers)
		var stuckTotal int64
		for l := 0; l < d.Layers; l++ {
			wMasks[l] = fm.StuckMask(fmt.Sprintf("w%d", l), dims[l], dims[l+1], ws.stuckCells)
			ws.stuck[l] = fm.StuckMask(fmt.Sprintf("f%d", l), inst.Features.Rows, dims[l+1], ws.stuckCells)
			if wMasks[l] != nil {
				stuckTotal += int64(wMasks[l].Stuck)
			}
			if ws.stuck[l] != nil {
				stuckTotal += int64(ws.stuck[l].Stuck)
			}
		}
		ws.counts.stuckElems += stuckTotal
	}

	// written[l] is the combined feature matrix as present on the
	// layer's aggregation crossbars; rows refresh per the plan.
	written := make([]*tensor.Matrix, d.Layers)

	ws.counts.trainRuns++
	losses := make([]float64, 0, cfg.Epochs)
	var updatedRows, totalRows float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		t0 := obs.NowIfEnabled()
		ws.counts.epochs++
		if quantBits >= 2 {
			// ReRAM write-time quantisation: the crossbars only ever
			// hold fixed-point weights.
			for li, w := range weights {
				s := quant.QuantizeMatrix(w, quantBits)
				if wMasks != nil && wMasks[li] != nil {
					applyStuckAll(w, wMasks[li], s, ws.stuckBPC, ws.stuckCells)
				}
			}
		}
		fw := ws.forwardQuant(inst.Features, weights, written, cfg.Plan, epoch, dropout, rng, quantBits)
		updatedRows += fw.updatedFrac
		totalRows++

		var loss float64
		switch d.Task {
		case graphgen.NodeClassification:
			loss = nodeLossGradInto(ws.probs, ws.dOut, fw.out, inst.Labels, inst.TrainMask)
		case graphgen.LinkPrediction:
			loss = linkLossGradInto(rng, ws.dOut, fw.out, inst.Graph)
		}
		losses = append(losses, loss)
		grads := ws.backward(fw, weights, ws.dOut)
		opt.step(weights, grads)
		mEpochTime.ObserveSince(t0)
	}

	final := ws.forwardQuant(inst.Features, weights, written, nil, 0, 0, rng, quantBits)
	res := Result{TrainLoss: losses, UpdatedRowFraction: updatedRows / totalRows}
	switch d.Task {
	case graphgen.NodeClassification:
		res.Accuracy = nodeAccuracy(final.out, inst.Labels, inst.TestMask)
	case graphgen.LinkPrediction:
		res.Accuracy = linkAccuracy(final.out, inst.PosEdges, inst.NegEdges)
	}
	if obs.Enabled() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mHeapAlloc.Set(float64(ms.HeapAlloc))
		mGCCount.Set(float64(ms.NumGC))
	}
	return res, &ws.counts
}

// forwardState caches one forward pass for backprop. Its matrices
// alias the owning workspace's buffers: a forwardState is valid until
// the next forward call on the same workspace overwrites it.
type forwardState struct {
	ws *workspace
	// inputs[l] is the input feature matrix of layer l (H_{l-1}).
	inputs []*tensor.Matrix
	// combined[l] is C_l = H_{l-1}·W_l as used by aggregation (possibly
	// partially stale under ISU).
	combined []*tensor.Matrix
	// aggregated[l] is Â·C_l before the nonlinearity.
	aggregated []*tensor.Matrix
	// masks[l] is the ReLU/dropout mask applied after layer l (nil for
	// the last layer).
	masks []*tensor.Matrix
	out   *tensor.Matrix
	// updatedFrac is the fraction of combined-feature rows rewritten
	// this epoch, averaged over layers.
	updatedFrac float64
}

// forward and forwardQuant are the test-facing entry points; each call
// builds a transient workspace so successive calls return
// independently owned states (the staleness tests compare two forward
// passes side by side).
func forward(adj *sparsemat.CSR, x *tensor.Matrix, weights []*tensor.Matrix,
	written []*tensor.Matrix, plan *mapping.UpdatePlan, epoch int,
	dropout float64, rng *rand.Rand) *forwardState {
	return forwardQuant(adj, x, weights, written, plan, epoch, dropout, rng, 0)
}

func forwardQuant(adj *sparsemat.CSR, x *tensor.Matrix, weights []*tensor.Matrix,
	written []*tensor.Matrix, plan *mapping.UpdatePlan, epoch int,
	dropout float64, rng *rand.Rand, quantBits int) *forwardState {
	ws := newWorkspace(adj, nil, x.Rows, layerDims(x, weights))
	fw := ws.forwardQuant(x, weights, written, plan, epoch, dropout, rng, quantBits)
	// Transient workspaces flush their row counters immediately: the
	// free functions are not memoized, so their metric effect must
	// match the historic direct increments.
	ws.counts.apply()
	ws.counts = simCounts{}
	return fw
}

// forwardQuant runs one forward pass into the workspace buffers. The
// compute order — per-layer GEMM, optional quantisation, ISU row
// refresh, SpMM aggregation, mask build with one rng draw per positive
// entry in index order — matches the historic allocating version
// exactly, so outputs and the RNG stream are byte-identical to it.
func (ws *workspace) forwardQuant(x *tensor.Matrix, weights []*tensor.Matrix,
	written []*tensor.Matrix, plan *mapping.UpdatePlan, epoch int,
	dropout float64, rng *rand.Rand, quantBits int) *forwardState {

	fw := &ws.fw
	h := x
	layers := len(weights)
	var updSum float64
	for l := 0; l < layers; l++ {
		fw.inputs[l] = h
		c := ws.combined[l]
		tensor.MatMulInto(c, h, weights[l])
		// Stuck-at faults damage rows only as they are (re)written to
		// the array — stale rows keep the damage of their last write —
		// so the mask applies at exactly the points below where rows
		// land, on quantised values (faults pin physical bit slices).
		var sch quant.Scheme
		msk := (*fault.Mask)(nil)
		if ws.stuck != nil {
			msk = ws.stuck[l]
		}
		if quantBits >= 2 {
			// Feature rows are quantised as they are written to the
			// aggregation crossbars.
			sch = quant.QuantizeMatrix(c, quantBits)
		} else {
			msk = nil
		}

		ws.counts.rowsTotal += int64(c.Rows)
		if plan != nil {
			// ISU: copy fresh rows for vertices due this epoch; stale
			// rows stay as last written.
			if written[l] == nil {
				if msk != nil {
					applyStuckAll(c, msk, sch, ws.stuckBPC, ws.stuckCells)
				}
				written[l] = c.Clone() // first epoch writes everything
				updSum++
				ws.counts.rowsRewritten += int64(c.Rows)
			} else {
				updated := 0
				for v := 0; v < c.Rows; v++ {
					if plan.UpdatedThisEpoch(v, epoch) {
						if msk != nil {
							applyStuckRow(c, msk, v, sch, ws.stuckBPC, ws.stuckCells)
						}
						written[l].SetRow(v, c.Row(v))
						updated++
					}
				}
				updSum += float64(updated) / float64(c.Rows)
				ws.counts.rowsRewritten += int64(updated)
				c.CopyFrom(written[l])
			}
		} else {
			if msk != nil {
				applyStuckAll(c, msk, sch, ws.stuckBPC, ws.stuckCells)
			}
			updSum++
			ws.counts.rowsRewritten += int64(c.Rows)
		}
		fw.combined[l] = c

		a := ws.aggregated[l]
		ws.adj.MulDenseInto(a, c)
		fw.aggregated[l] = a
		if l+1 < layers {
			mask := ws.maskBuf[l]
			for i, v := range a.Data {
				// Same predicate as ReLUMask: NaN and everything ≤ 0
				// map to 0.
				if v > 0 {
					mask.Data[i] = 1
				} else {
					mask.Data[i] = 0
				}
			}
			if dropout > 0 {
				keep := 1 - dropout
				for i := range mask.Data {
					if mask.Data[i] > 0 {
						if rng.Float64() < dropout {
							mask.Data[i] = 0
						} else {
							mask.Data[i] = 1 / keep // inverted dropout
						}
					}
				}
			}
			fw.masks[l] = mask
			hw := ws.hidden[l]
			hw.CopyFrom(a)
			hw.MulInPlace(mask)
			h = hw
		} else {
			fw.masks[l] = nil
			h = a
		}
	}
	fw.out = h
	fw.updatedFrac = updSum / float64(layers)
	return fw
}

// applyStuckRow pins the faulty cell slices of row r of m per the
// mask, using the scheme the row was just quantised with.
func applyStuckRow(m *tensor.Matrix, msk *fault.Mask, r int, s quant.Scheme, bitsPerCell, cells int) {
	base := r * msk.Cols
	row := m.Row(r)
	for c := 0; c < msk.Cols; c++ {
		if idx := msk.Slice[base+c]; idx >= 0 {
			row[c] = quant.ApplyStuck(s, row[c], bitsPerCell, cells, int(idx), msk.High[base+c])
		}
	}
}

// applyStuckAll pins the faulty cell slices of every row of m.
func applyStuckAll(m *tensor.Matrix, msk *fault.Mask, s quant.Scheme, bitsPerCell, cells int) {
	for r := 0; r < m.Rows; r++ {
		applyStuckRow(m, msk, r, s, bitsPerCell, cells)
	}
}

// backward is the test-facing entry point mirroring the historic free
// function; fw carries its owning workspace, and a missing Âᵀ (forward
// built the workspace without one) is filled in here.
func backward(adj *sparsemat.CSR, fw *forwardState, weights []*tensor.Matrix, dOut *tensor.Matrix) []*tensor.Matrix {
	ws := fw.ws
	if ws.adjT == nil {
		ws.adjT = adj.Transpose()
	}
	return ws.backward(fw, weights, dOut)
}

// backward runs standard GCN backprop from dOut (gradient w.r.t. the
// final aggregated output) and returns per-layer weight gradients,
// writing every intermediate into workspace buffers. Stale rows are
// treated as the values actually used in the forward pass (the
// hardware computes gradients with the data it has).
//
// The aggregation gradient dC = Âᵀ·dA runs as Âᵀ (a CSR built once
// per run) times dA through the row-parallel MulDenseInto. Each Âᵀ
// row lists its entries in ascending source-row order, so every output
// element accumulates exactly as a serial scatter over Â's rows would,
// at any worker count. The in-place mask multiply replaces the
// historic Clone+MulInPlace: the buffer it mutates (ws.dIn of the
// layer above, or the caller's dOut which never has a mask) is not
// read again afterwards.
func (ws *workspace) backward(fw *forwardState, weights []*tensor.Matrix, dOut *tensor.Matrix) []*tensor.Matrix {
	layers := len(weights)
	dA := dOut
	for l := layers - 1; l >= 0; l-- {
		if fw.masks[l] != nil {
			dA.MulInPlace(fw.masks[l])
		}
		// A = Â·C → dC = Âᵀ·dA.
		ws.adjT.MulDenseInto(ws.dC[l], dA)
		// C = H·W → dW = Hᵀ·dC through the transpose-fused kernel (an
		// n × dims[l] Hᵀ would be the largest buffer in the workspace),
		// and dH = dC·Wᵀ through the plain kernel on the small Wᵀ
		// scratch. Either way the per-element accumulation order is the
		// historic transpose-then-multiply one.
		tensor.MatMulTNInto(ws.grads[l], fw.inputs[l], ws.dC[l])
		if l > 0 {
			tensor.TransposeInto(ws.wT[l], weights[l])
			tensor.MatMulInto(ws.dIn[l], ws.dC[l], ws.wT[l])
			dA = ws.dIn[l]
		}
	}
	return ws.grads
}
