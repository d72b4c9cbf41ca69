// Package stage converts a GCN workload (model architecture + graph
// statistics + micro-batch size + mapping policy) into the 4L pipeline
// stages of paper Fig. 10, each with a per-micro-batch latency for one
// replica, a crossbar footprint, and energy-relevant operation counts.
//
// Latency model (calibrated against the paper's reported ratios, see
// DESIGN.md §2):
//
//   - Combination (CO): the micro-batch's b feature vectors stream
//     through the mapped weight matrix; each needs weightBits/dacBits
//     read cycles. T = b · MVMNS. The per-batch weight rewrite after
//     gradient descent is amortised over the batch's micro-batches.
//   - Aggregation (AG): T = T_update + T_mvm.
//     T_mvm streams each target vertex's adjacency row in blocks of 64
//     vertices (binary input: one read cycle per block), skipping
//     neighbour-free blocks imperfectly (Chip.ZeroSkipMiss).
//     T_update rewrites the freshly combined features onto the mapped
//     feature matrix before aggregation (dataflow step ⑤ in paper
//     Fig. 8); writes serialise within a PE, PEs run in parallel, so
//     the slowest PE domain bounds the update. Selective updating
//     skips non-important rows; interleaved mapping keeps the domains
//     balanced.
//   - Loss calculation (LC): same dataflow as CO (paper §IV-B).
//   - Gradient compute (GC): element-wise MACs on the SRAM weight
//     manager; not crossbar-mapped, so it cannot be replicated.
package stage

import (
	"fmt"
	"math"
	"math/bits"

	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/noc"
	"gopim/internal/reram"
)

// Kind identifies one of the four GCN training stage types.
type Kind int

const (
	Combination Kind = iota // CO: feature × weight MVM
	Aggregation             // AG: adjacency × feature MVM + vertex update
	LossCalc                // LC: backward error propagation
	GradCompute             // GC: weight gradients on the SRAM manager
)

func (k Kind) String() string {
	switch k {
	case Combination:
		return "CO"
	case Aggregation:
		return "AG"
	case LossCalc:
		return "LC"
	case GradCompute:
		return "GC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Stage is one pipeline stage of a GCN training iteration.
type Stage struct {
	Kind  Kind
	Layer int // 1-based GCN layer
	// Name is e.g. "CO1", "AG2", "LC1".
	Name string

	// TimeNS is the per-micro-batch latency with a single replica.
	TimeNS float64
	// MVMNS and UpdateNS break TimeNS down (UpdateNS only for AG).
	MVMNS    float64
	UpdateNS float64

	// Crossbars is the footprint of one replica (0 for GC: the SRAM
	// weight manager is not crossbar-mapped).
	Crossbars int
	// Replicable reports whether adding crossbar replicas shortens the
	// stage.
	Replicable bool

	// Energy-relevant per-micro-batch operation counts.
	ReadOps   float64 // crossbar read activations
	WriteRows float64 // crossbar rows written (total, all PEs)
	SRAMMACs  float64 // weight-manager multiply-accumulates
}

// GCUnit models the SRAM weight computer's throughput in MACs per
// nanosecond (16-bit, paper Table II "Weight Computer"). The weight
// manager is a wide SRAM MAC array; gradient compute must stay far off
// the pipeline's critical path or the paper's 10²–10³× replica
// speedups would be impossible.
const GCUnit = 1024.0

// Config describes one workload for stage construction.
type Config struct {
	Chip reram.Chip
	// Dataset supplies the GCN architecture (layer dims) and graph
	// statistics.
	Dataset graphgen.Dataset
	// Deg is the graph's degree sequence in vertex-index order.
	Deg *graphgen.DegreeModel
	// MicroBatch is the number of target vertices per micro-batch.
	MicroBatch int

	// Layout/Plan select the vertex mapping and selective-updating
	// policy for aggregation stages. A nil Layout with a nil Plan means
	// full updates on a balanced (index) layout.
	Layout *mapping.Layout
	Plan   *mapping.UpdatePlan

	// PruneEdgeFraction removes this fraction of edges from the
	// aggregation workload (SlimGNN-like input subgraph pruning).
	PruneEdgeFraction float64
	// ReloadPenalty adds ReFlip's hybrid-execution reload traffic:
	// column-major execution of low-degree vertices repeatedly reloads
	// source vertices (paper §VII-B).
	ReloadPenalty bool
	// AGMVMSpeedup divides aggregation MVM time (≤ 1 treated as 1).
	// ReFlip's row/column hybrid execution reuses operands across
	// vertices, trading the reload write traffic above for much faster
	// aggregation compute.
	AGMVMSpeedup float64
	// NoC, when non-nil, adds the inter-tile interconnect overhead of
	// aggregation (adder-tree reduction + pipeline-bus streaming,
	// paper §IV-A) to AG stage times. The default calibration subsumes
	// average interconnect cost, so this refinement is opt-in.
	NoC *noc.Params
}

// LayerDims returns the (in, out) channel widths of layer l (1-based)
// per paper Table IV: input → hidden → … → output.
func LayerDims(d graphgen.Dataset, l int) (in, out int) {
	if l < 1 || l > d.Layers {
		panic(fmt.Sprintf("stage: layer %d out of range 1..%d", l, d.Layers))
	}
	in = d.HiddenCh
	if l == 1 {
		in = d.InputCh
	}
	out = d.HiddenCh
	if l == d.Layers {
		out = d.OutputCh
	}
	return in, out
}

// Build constructs the 4L stages in pipeline order:
// CO1, AG1, …, COL, AGL, LCL, GCL, …, LC1, GC1 (paper Fig. 2).
func Build(cfg Config) []Stage {
	validate(cfg)
	// The expected active-block count is a property of the graph alone;
	// compute it once for all AG stages.
	return build(cfg, avgActiveBlocks(cfg))
}

func validate(cfg Config) {
	if err := cfg.Chip.Validate(); err != nil {
		panic(err)
	}
	if cfg.MicroBatch < 1 {
		panic(fmt.Sprintf("stage: micro-batch %d must be ≥ 1", cfg.MicroBatch))
	}
	if cfg.Deg == nil {
		panic("stage: nil degree model")
	}
}

func build(cfg Config, active float64) []Stage {
	L := cfg.Dataset.Layers
	stages := make([]Stage, 0, 4*L)
	imp := slotImportance(cfg)
	for l := 1; l <= L; l++ {
		stages = append(stages, buildCO(cfg, l), buildAG(cfg, l, active, imp))
	}
	for l := L; l >= 1; l-- {
		stages = append(stages, buildLC(cfg, l), buildGC(cfg, l))
	}
	return stages
}

// numMicroBatches returns how many micro-batches one epoch (full
// vertex sweep) comprises.
func numMicroBatches(cfg Config) int {
	n := cfg.Deg.N
	b := cfg.MicroBatch
	mb := (n + b - 1) / b
	if mb < 1 {
		mb = 1
	}
	return mb
}

func buildCO(cfg Config, l int) Stage {
	in, out := LayerDims(cfg.Dataset, l)
	c := cfg.Chip
	b := float64(cfg.MicroBatch)
	xbars := c.CrossbarsForMatrix(in, out)
	mvm := b * c.MVMNS()
	// Weight rewrite after each batch's gradient step, amortised over
	// the batch's micro-batches.
	wRows := float64(xbars) * float64(c.CrossbarRows)
	upd := wRows * c.RowWriteNS() / float64(numMicroBatches(cfg))
	return Stage{
		Kind:       Combination,
		Layer:      l,
		Name:       fmt.Sprintf("CO%d", l),
		TimeNS:     mvm + upd,
		MVMNS:      mvm,
		UpdateNS:   upd,
		Crossbars:  xbars,
		Replicable: true,
		ReadOps:    b * float64(c.InputCyclesPerMVM()) * float64(xbars),
		WriteRows:  wRows / float64(numMicroBatches(cfg)),
	}
}

// segsPerVertex is the number of crossbar rows one vertex's feature
// row occupies: a differential pair per value, 64 values per row.
func segsPerVertex(c reram.Chip, featDim int) int {
	s := 2 * ((featDim + c.CrossbarCols - 1) / c.CrossbarCols)
	if s < 2 {
		s = 2
	}
	return s
}

// verticesPerPE is how many vertices one PE's rows hold.
func verticesPerPE(c reram.Chip, featDim int) int {
	v := c.RowsPerPE() / segsPerVertex(c, featDim)
	if v < 1 {
		v = 1
	}
	return v
}

// slotImportance gathers the update plan's importance flags into
// layout slot order, one bit per slot, so every AG stage counts its
// write domains from the same bits instead of re-gathering. It is nil
// when updates are full (no plan or layout) or ReFlip's reloads
// replace them.
func slotImportance(cfg Config) []uint64 {
	if cfg.Plan == nil || cfg.Layout == nil || cfg.ReloadPenalty {
		return nil
	}
	important := cfg.Plan.Important
	order := cfg.Layout.Order
	imp := make([]uint64, (len(order)+63)/64)
	for w := range imp {
		var word uint64
		for i, v := range order[w*64 : min(w*64+64, len(order))] {
			if important[v] {
				word |= 1 << i
			}
		}
		imp[w] = word
	}
	return imp
}

// updateDue returns, per epoch (steady state): the total number of
// vertex rewrites across the stage and the rewrites of the busiest
// PE-sized write domain. Important vertices rewrite every epoch;
// the rest amortise to 1/StalePeriod per epoch. imp is
// slotImportance(cfg).
func updateDue(cfg Config, featDim int, imp []uint64) (totalDue, maxDomainDue float64) {
	c := cfg.Chip
	n := cfg.Deg.N
	vppe := verticesPerPE(c, featDim)

	if cfg.Plan == nil || cfg.Layout == nil {
		// Full updates, balanced by construction.
		full := float64(vppe)
		if n < vppe {
			full = float64(n)
		}
		return float64(n), full
	}

	// Each PE-sized run of layout slots is one write domain.
	staleShare := 1 / float64(cfg.Plan.StalePeriod)
	slots := len(cfg.Layout.Order)
	for start := 0; start < slots; start += vppe {
		end := min(start+vppe, slots)
		ones := countOnes(imp, start, end)
		due := float64(ones) + float64(end-start-ones)*staleShare
		if due > maxDomainDue {
			maxDomainDue = due
		}
		totalDue += due
	}
	return totalDue, maxDomainDue
}

// countOnes returns the number of set bits at positions [lo, hi).
func countOnes(b []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	loMask, hiMask := ^uint64(0)<<(lo&63), ^uint64(0)>>(63-(hi-1)&63)
	if first == last {
		return bits.OnesCount64(b[first] & loMask & hiMask)
	}
	c := bits.OnesCount64(b[first]&loMask) + bits.OnesCount64(b[last]&hiMask)
	for _, w := range b[first+1 : last] {
		c += bits.OnesCount64(w)
	}
	return c
}

// avgActiveBlocks returns the mean over vertices of the expected number
// of 64-vertex adjacency blocks containing at least one neighbour,
// after edge pruning.
func avgActiveBlocks(cfg Config) float64 {
	n := cfg.Deg.N
	if n == 0 {
		return 0
	}
	occ, keep := cfg.Chip.Occupancy(n), keepFraction(cfg)
	var sum float64
	for _, d := range cfg.Deg.DegreesByIndex {
		sum += occ.Expected(d * keep)
	}
	return sum / float64(n)
}

// keepFraction is the share of edges edge pruning leaves.
func keepFraction(cfg Config) float64 {
	return max(0, 1-cfg.PruneEdgeFraction)
}

// ActiveBlocks carries avgActiveBlocks' per-vertex terms across degree
// updates of one graph. An unchanged vertex's term repeats bit for bit,
// so an update recomputes only the changed vertices' terms, and the
// mean sums all n terms in index order as avgActiveBlocks does: the
// same bits for a fraction of the Exp calls. It costs one n-entry
// slice, which only a caller that carries it across updates should
// pay; Build keeps computing the mean in one pass.
type ActiveBlocks struct {
	occ   reram.BlockOccupancy
	keep  float64
	terms []float64
}

// NewActiveBlocks computes every vertex's term for cfg's graph.
func NewActiveBlocks(cfg Config) *ActiveBlocks {
	a := &ActiveBlocks{
		occ:   cfg.Chip.Occupancy(cfg.Deg.N),
		keep:  keepFraction(cfg),
		terms: make([]float64, cfg.Deg.N),
	}
	for v, d := range cfg.Deg.DegreesByIndex {
		a.terms[v] = a.occ.Expected(d * a.keep)
	}
	return a
}

// Update recomputes the terms of the changed vertices from degs, the
// full current degree sequence.
func (a *ActiveBlocks) Update(degs []float64, changed []int) {
	for _, v := range changed {
		a.terms[v] = a.occ.Expected(degs[v] * a.keep)
	}
}

// Mean is avgActiveBlocks of the degrees the terms were last updated
// to, bit for bit.
func (a *ActiveBlocks) Mean() float64 {
	if len(a.terms) == 0 {
		return 0
	}
	var sum float64
	for _, t := range a.terms {
		sum += t
	}
	return sum / float64(len(a.terms))
}

// Build is stage.Build on the carried mean. cfg must describe the
// graph, chip geometry and pruning the terms were built and updated
// for.
func (a *ActiveBlocks) Build(cfg Config) []Stage {
	validate(cfg)
	if cfg.Deg.N != len(a.terms) {
		panic(fmt.Sprintf("stage: %d-vertex config for %d carried terms", cfg.Deg.N, len(a.terms)))
	}
	return build(cfg, a.Mean())
}

func buildAG(cfg Config, l int, activeBlocks float64, imp []uint64) Stage {
	_, out := LayerDims(cfg.Dataset, l)
	c := cfg.Chip
	b := float64(cfg.MicroBatch)
	n := cfg.Deg.N
	xbars := c.CrossbarsForMatrix(n, out)
	segs := float64(segsPerVertex(c, out))

	totalBlocks := float64(c.BlocksForVertices(n))
	effBlocks := c.EffectiveBlocks(activeBlocks, totalBlocks)
	// Binary adjacency input: one read cycle per streamed block.
	mvm := b * effBlocks * c.ReadLatencyNS
	if cfg.AGMVMSpeedup > 1 {
		mvm /= cfg.AGMVMSpeedup
	}

	var upd, writeRows float64
	if cfg.ReloadPenalty {
		// ReFlip keeps no up-to-date feature copy on the crossbars;
		// its column-major execution of low-degree vertices re-loads
		// source vertex features every micro-batch instead — write
		// traffic proportional to the micro-batch's edges (paper §VII-B
		// reasons (a)/(b)). Reloads restore previously verified data,
		// so they take the fast single-pulse write path across wide
		// reload lanes: cheap in time, very expensive in total write
		// energy on dense graphs.
		reloadRows := b * cfg.Deg.AvgDeg * 0.5
		upd = reloadRows * c.RowWriteNS() / 64
		writeRows = reloadRows
	} else {
		// Vertex updating: each epoch rewrites the due feature rows
		// once. Programming is write-verify (µs per row) and the chip's
		// write power budget admits only WriteLanes concurrent rows, so
		// the epoch's write wall time is the larger of the busiest PE
		// domain's serial writes and the lane-limited total, amortised
		// over the epoch's micro-batches.
		totalDue, maxDomainDue := updateDue(cfg, out, imp)
		prog := c.ProgramRowNS()
		epochWall := math.Max(
			maxDomainDue*segs*prog,
			totalDue*segs*prog/float64(c.WriteLanes),
		)
		numMB := float64(numMicroBatches(cfg))
		upd = epochWall / numMB
		writeRows = totalDue * segs / numMB
	}

	var nocNS float64
	if cfg.NoC != nil {
		tiles := noc.TilesForCrossbars(xbars, c.PEsPerTile*c.CrossbarsPerPE)
		nocNS = cfg.NoC.AggregationOverheadNS(cfg.MicroBatch, out, tiles)
	}

	return Stage{
		Kind:       Aggregation,
		Layer:      l,
		Name:       fmt.Sprintf("AG%d", l),
		TimeNS:     mvm + upd + nocNS,
		MVMNS:      mvm,
		UpdateNS:   upd,
		Crossbars:  xbars,
		Replicable: true,
		ReadOps:    b * effBlocks * segs,
		WriteRows:  writeRows,
	}
}

func buildLC(cfg Config, l int) Stage {
	in, out := LayerDims(cfg.Dataset, l)
	c := cfg.Chip
	b := float64(cfg.MicroBatch)
	// Backward error MVM through the layer's weights (same dataflow as
	// CO, paper §IV-B).
	xbars := c.CrossbarsForMatrix(out, in)
	mvm := b * c.MVMNS()
	return Stage{
		Kind:       LossCalc,
		Layer:      l,
		Name:       fmt.Sprintf("LC%d", l),
		TimeNS:     mvm,
		MVMNS:      mvm,
		Crossbars:  xbars,
		Replicable: true,
		ReadOps:    b * float64(c.InputCyclesPerMVM()) * float64(xbars),
	}
}

func buildGC(cfg Config, l int) Stage {
	in, out := LayerDims(cfg.Dataset, l)
	b := float64(cfg.MicroBatch)
	macs := b * float64(in) * float64(out)
	return Stage{
		Kind:     GradCompute,
		Layer:    l,
		Name:     fmt.Sprintf("GC%d", l),
		TimeNS:   macs / GCUnit,
		MVMNS:    macs / GCUnit,
		SRAMMACs: macs,
		// Not crossbar-mapped: replicas cannot shorten it.
		Replicable: false,
	}
}

// TotalCrossbars sums the single-replica footprints of all stages.
func TotalCrossbars(stages []Stage) int {
	total := 0
	for _, s := range stages {
		total += s.Crossbars
	}
	return total
}
