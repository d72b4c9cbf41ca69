package stage

import (
	"math"
	"math/rand"
	"testing"

	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/noc"
	"gopim/internal/reram"
)

func ddiConfig(t *testing.T) Config {
	t.Helper()
	d, err := graphgen.ByName("ddi")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Chip:       reram.DefaultChip(),
		Dataset:    d,
		Deg:        d.SynthDegreeModel(1),
		MicroBatch: 64,
	}
}

func TestBuildStageOrder(t *testing.T) {
	cfg := ddiConfig(t) // ddi is a 2-layer model → 8 stages
	stages := Build(cfg)
	wantNames := []string{"CO1", "AG1", "CO2", "AG2", "LC2", "GC2", "LC1", "GC1"}
	if len(stages) != len(wantNames) {
		t.Fatalf("got %d stages, want %d", len(stages), len(wantNames))
	}
	for i, s := range stages {
		if s.Name != wantNames[i] {
			t.Fatalf("stage %d = %s, want %s (paper Fig. 2 order)", i, s.Name, wantNames[i])
		}
		if s.TimeNS <= 0 {
			t.Fatalf("stage %s has non-positive time %v", s.Name, s.TimeNS)
		}
	}
}

func TestLayerDims(t *testing.T) {
	d, _ := graphgen.ByName("arxiv") // 128 → 256 → 256 → 40, 3 layers
	in, out := LayerDims(d, 1)
	if in != 128 || out != 256 {
		t.Fatalf("layer 1 dims %d→%d", in, out)
	}
	in, out = LayerDims(d, 2)
	if in != 256 || out != 256 {
		t.Fatalf("layer 2 dims %d→%d", in, out)
	}
	in, out = LayerDims(d, 3)
	if in != 256 || out != 40 {
		t.Fatalf("layer 3 dims %d→%d", in, out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad layer")
		}
	}()
	LayerDims(d, 4)
}

// Paper Table VI (Serial row, ddi): crossbar footprints alternate
// 32, 534, 32, 534, 32, 534, 32, 534 over the 8 stages, except GC
// stages occupy no crossbars in our model (SRAM). The CO/AG/LC
// footprints must match: CO 32, AG 534.
func TestFootprintsMatchTableVI(t *testing.T) {
	stages := Build(ddiConfig(t))
	for _, s := range stages {
		switch s.Kind {
		case Combination, LossCalc:
			if s.Crossbars != 32 {
				t.Fatalf("%s footprint = %d, want 32", s.Name, s.Crossbars)
			}
		case Aggregation:
			if s.Crossbars != 534 {
				t.Fatalf("%s footprint = %d, want 534", s.Name, s.Crossbars)
			}
		case GradCompute:
			if s.Crossbars != 0 || s.Replicable {
				t.Fatalf("%s must be SRAM-resident and non-replicable", s.Name)
			}
		}
	}
}

// The paper's central observation: Aggregation dwarfs Combination.
// §III-B reports ratios from tens to ~1500× (avg 247×). Check the
// synthetic ddi lands in a plausible band and that bigger graphs give
// bigger ratios.
func TestAggregationDominatesCombination(t *testing.T) {
	stages := Build(ddiConfig(t))
	var co, ag float64
	for _, s := range stages {
		if s.Name == "CO1" {
			co = s.TimeNS
		}
		if s.Name == "AG1" {
			ag = s.TimeNS
		}
	}
	ratio := ag / co
	if ratio < 10 || ratio > 2000 {
		t.Fatalf("AG/CO ratio = %v, want within the paper's observed 10–2000 band", ratio)
	}
}

func TestLargerGraphsHaveLargerAGRatio(t *testing.T) {
	small := Build(ddiConfig(t))
	products, _ := graphgen.ByName("products")
	big := Build(Config{
		Chip:       reram.DefaultChip(),
		Dataset:    products,
		Deg:        products.SynthDegreeModel(1),
		MicroBatch: 64,
	})
	ratio := func(st []Stage) float64 {
		var co, ag float64
		for _, s := range st {
			if s.Kind == Combination && s.Layer == 2 {
				co = s.TimeNS
			}
			if s.Kind == Aggregation && s.Layer == 2 {
				ag = s.TimeNS
			}
		}
		return ag / co
	}
	if ratio(big) <= ratio(small) {
		t.Fatalf("products AG/CO %v should exceed ddi's %v", ratio(big), ratio(small))
	}
	// The paper reports up to 888–1595× on products.
	if r := ratio(big); r < 200 {
		t.Fatalf("products AG/CO = %v, want the paper's extreme regime (>200)", r)
	}
}

// Vertex updating is a significant share of aggregation (paper §III-A:
// 52% of AG1+AG2 on ppa). Our model should make it a first-order cost
// on dense datasets.
func TestUpdateShareSignificant(t *testing.T) {
	stages := Build(ddiConfig(t))
	for _, s := range stages {
		if s.Kind != Aggregation {
			continue
		}
		share := s.UpdateNS / s.TimeNS
		if share < 0.2 || share > 0.99 {
			t.Fatalf("%s update share = %v, want a first-order share", s.Name, share)
		}
	}
}

// ISU (interleaved + θ=0.5 selective updating) must cut AG time versus
// full updates, and OSU (index + selective) must cut it less.
func TestISUBeatsOSUBeatsFull(t *testing.T) {
	cfg := ddiConfig(t)
	degs := cfg.Deg.DegreesByIndex
	gs := cfg.Chip.CrossbarRows

	agTime := func(c Config) float64 {
		var sum float64
		for _, s := range Build(c) {
			if s.Kind == Aggregation {
				sum += s.TimeNS
			}
		}
		return sum
	}

	full := agTime(cfg)

	osu := cfg
	osu.Layout = mapping.IndexLayout(len(degs), gs)
	osu.Plan = mapping.NewUpdatePlan(degs, 0.5, 20)
	osuT := agTime(osu)

	isu := cfg
	isu.Layout = mapping.InterleavedLayout(degs, gs)
	isu.Plan = mapping.NewUpdatePlan(degs, 0.5, 20)
	isuT := agTime(isu)

	if !(isuT < full) {
		t.Fatalf("ISU %v must beat full updates %v", isuT, full)
	}
	if isuT > osuT*(1+1e-9) {
		t.Fatalf("ISU %v must not be slower than OSU %v", isuT, osuT)
	}
	// ISU's AG update time should drop by roughly θ̄ ≈ 0.525.
	if isuT > 0.95*full {
		t.Fatalf("ISU %v should be a real improvement over %v", isuT, full)
	}
}

func TestPruningReducesAGMVM(t *testing.T) {
	cfg := ddiConfig(t)
	base := Build(cfg)
	cfg.PruneEdgeFraction = 0.5
	pruned := Build(cfg)
	for i := range base {
		if base[i].Kind != Aggregation {
			continue
		}
		if pruned[i].MVMNS >= base[i].MVMNS {
			t.Fatalf("%s: pruning should cut MVM time (%v vs %v)",
				base[i].Name, pruned[i].MVMNS, base[i].MVMNS)
		}
	}
}

// ReFlip's hybrid execution trades in-place updates for per-micro-batch
// source reloads: far more write traffic on dense graphs (the paper's
// §VII-B energy argument) even though the fast reload path keeps its
// stage time competitive.
func TestReloadPenaltyTradesWritesForTime(t *testing.T) {
	cfg := ddiConfig(t) // ddi: avg degree ≈ 500, firmly dense
	base := Build(cfg)
	cfg.ReloadPenalty = true
	cfg.AGMVMSpeedup = 8
	reflip := Build(cfg)
	for i := range base {
		if base[i].Kind != Aggregation {
			continue
		}
		if reflip[i].WriteRows <= 2*base[i].WriteRows {
			t.Fatalf("%s: reloads must dwarf in-place update write traffic (%v vs %v)",
				base[i].Name, reflip[i].WriteRows, base[i].WriteRows)
		}
		if reflip[i].MVMNS >= base[i].MVMNS {
			t.Fatalf("%s: hybrid execution must cut MVM time", base[i].Name)
		}
	}
}

func TestGCStage(t *testing.T) {
	stages := Build(ddiConfig(t))
	var gc *Stage
	for i := range stages {
		if stages[i].Name == "GC1" {
			gc = &stages[i]
		}
	}
	if gc == nil {
		t.Fatal("GC1 missing")
	}
	wantMACs := 64.0 * 256 * 256
	if math.Abs(gc.SRAMMACs-wantMACs) > 1 {
		t.Fatalf("GC MACs = %v, want %v", gc.SRAMMACs, wantMACs)
	}
	if math.Abs(gc.TimeNS-wantMACs/GCUnit) > 1e-6 {
		t.Fatalf("GC time = %v", gc.TimeNS)
	}
}

func TestAggregates(t *testing.T) {
	stages := Build(ddiConfig(t))
	if got := TotalCrossbars(stages); got != 2*32+2*534+2*32 {
		t.Fatalf("TotalCrossbars = %d, want %d", got, 2*32+2*534+2*32)
	}
}

func TestMicroBatchScalesCOTime(t *testing.T) {
	cfg := ddiConfig(t)
	cfg.MicroBatch = 32
	t32 := Build(cfg)
	cfg.MicroBatch = 128
	t128 := Build(cfg)
	var co32, co128 float64
	for i := range t32 {
		if t32[i].Name == "CO1" {
			co32 = t32[i].MVMNS
		}
	}
	for i := range t128 {
		if t128[i].Name == "CO1" {
			co128 = t128[i].MVMNS
		}
	}
	if math.Abs(co128/co32-4) > 1e-9 {
		t.Fatalf("CO MVM time should scale linearly with micro-batch: %v vs %v", co128, co32)
	}
}

func TestBuildValidation(t *testing.T) {
	cfg := ddiConfig(t)
	bad := cfg
	bad.MicroBatch = 0
	mustPanic(t, func() { Build(bad) })

	bad2 := cfg
	bad2.Deg = nil
	mustPanic(t, func() { Build(bad2) })

	bad3 := cfg
	bad3.Chip.Tiles = 0
	mustPanic(t, func() { Build(bad3) })
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

func TestSmallGraphUpdateCap(t *testing.T) {
	// A graph smaller than one PE's capacity must not charge more rows
	// than it has vertices.
	d, _ := graphgen.ByName("ddi")
	d.PaperVertices = 100
	cfg := Config{
		Chip:       reram.DefaultChip(),
		Dataset:    d,
		Deg:        graphgen.NewDegreeModel(make([]float64, 100)),
		MicroBatch: 64,
	}
	for _, s := range Build(cfg) {
		if s.Kind != Aggregation {
			continue
		}
		segs := float64(segsPerVertex(cfg.Chip, 256))
		bound := 100 * segs * cfg.Chip.ProgramRowNS()
		if s.UpdateNS > bound+1e-9 {
			t.Fatalf("%s update %v exceeds whole-graph program cost %v", s.Name, s.UpdateNS, bound)
		}
	}
}

func TestNoCRefinementAddsAGOverhead(t *testing.T) {
	cfg := ddiConfig(t)
	base := Build(cfg)
	params := noc.Default()
	cfg.NoC = &params
	refined := Build(cfg)
	for i := range base {
		if base[i].Kind == Aggregation {
			if refined[i].TimeNS <= base[i].TimeNS {
				t.Fatalf("%s: NoC refinement must add time", base[i].Name)
			}
			extra := refined[i].TimeNS - base[i].TimeNS
			if extra > 0.2*base[i].TimeNS {
				t.Fatalf("%s: interconnect cost %v must stay second-order vs %v",
					base[i].Name, extra, base[i].TimeNS)
			}
		} else if refined[i].TimeNS != base[i].TimeNS {
			t.Fatalf("%s: NoC refinement must not touch non-AG stages", base[i].Name)
		}
	}
}

// Validate the analytic aggregation MVM model against an explicit
// graph: the per-vertex expected active-block estimate (random
// neighbour placement) must track the true mean number of distinct
// 64-vertex blocks the generated graph's neighbour lists touch.
func TestActiveBlocksMatchExplicitGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graphgen.PowerLaw(rng, 4000, 40, 2.2)
	chip := reram.DefaultChip()

	var actual float64
	seen := make([]int, chip.BlocksForVertices(g.N))
	epoch := 0
	for v := 0; v < g.N; v++ {
		epoch++
		active := 0
		for _, u := range g.Neighbors(v) {
			b := u / chip.CrossbarRows
			if seen[b] != epoch {
				seen[b] = epoch
				active++
			}
		}
		actual += float64(active)
	}
	actual /= float64(g.N)

	var analytic float64
	for _, d := range g.DegreeModel().DegreesByIndex {
		analytic += chip.ExpectedActiveBlocks(d, g.N)
	}
	analytic /= float64(g.N)

	// Chung-Lu neighbours are weight-biased, not uniform, so allow a
	// generous band; the estimate must still be the right magnitude.
	if actual < 0.5*analytic || actual > 2*analytic {
		t.Fatalf("explicit active blocks %v vs analytic %v: model off by >2x", actual, analytic)
	}
}
