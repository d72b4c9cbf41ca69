package accel

import (
	"strings"
	"testing"

	"gopim/internal/graphgen"
	"gopim/internal/reram"
)

// ddiWorkload returns the paper's headline workload (ddi, mb=64).
func ddiWorkload(t *testing.T) Workload {
	t.Helper()
	d, err := graphgen.ByName("ddi")
	if err != nil {
		t.Fatal(err)
	}
	return Workload{Dataset: d, Seed: 1}
}

func runAll(t *testing.T, w Workload) map[Kind]Report {
	t.Helper()
	out := map[Kind]Report{}
	for _, k := range []Kind{Serial, SlimGNNLike, ReGraphX, ReFlip, GoPIMVanilla, GoPIM, PlusPP, PlusISU} {
		out[k] = Run(k, w)
	}
	return out
}

// The paper's headline ordering (Fig. 13a): GoPIM is fastest, every
// pipelined design beats Serial.
func TestSpeedupOrdering(t *testing.T) {
	reports := runAll(t, ddiWorkload(t))
	serial := reports[Serial]
	for k, r := range reports {
		if k == Serial {
			continue
		}
		if r.MakespanNS >= serial.MakespanNS {
			t.Fatalf("%v (%v) must beat Serial (%v)", k, r.MakespanNS, serial.MakespanNS)
		}
	}
	gopim := reports[GoPIM]
	for _, k := range []Kind{SlimGNNLike, ReGraphX, ReFlip, GoPIMVanilla, PlusPP, PlusISU} {
		if gopim.MakespanNS > reports[k].MakespanNS {
			t.Fatalf("GoPIM (%v) must not lose to %v (%v)", gopim.MakespanNS, k, reports[k].MakespanNS)
		}
	}
}

// Fig. 13a magnitudes: GoPIM achieves 10²–10³× over Serial, and single
// to low-double-digit factors over the pipelined baselines.
func TestSpeedupMagnitudes(t *testing.T) {
	reports := runAll(t, ddiWorkload(t))
	serial, gopim := reports[Serial], reports[GoPIM]
	sp := Speedup(serial, gopim)
	if sp < 100 || sp > 5000 {
		t.Fatalf("GoPIM vs Serial = %vx, want the paper's 10²–10³ regime", sp)
	}
	if s := Speedup(reports[SlimGNNLike], gopim); s < 1.05 || s > 10 {
		t.Fatalf("GoPIM vs SlimGNN-like = %vx, want the paper's ~1.4–2.9 regime", s)
	}
	if s := Speedup(reports[ReFlip], gopim); s < 2 || s > 500 {
		t.Fatalf("GoPIM vs ReFlip = %vx, want the paper's 1.1–191 regime", s)
	}
}

// Fig. 13b: GoPIM is the most energy-efficient; ReFlip consumes more
// energy than Serial on the dense ddi dataset (paper §VII-B).
func TestEnergyOrdering(t *testing.T) {
	reports := runAll(t, ddiWorkload(t))
	gopim := reports[GoPIM]
	for _, k := range []Kind{Serial, SlimGNNLike, ReGraphX, ReFlip, GoPIMVanilla} {
		if gopim.EnergyPJ() > reports[k].EnergyPJ() {
			t.Fatalf("GoPIM energy (%v) must not exceed %v's (%v)",
				gopim.EnergyPJ(), k, reports[k].EnergyPJ())
		}
	}
	if reports[ReFlip].EnergyPJ() < 0.9*reports[Serial].EnergyPJ() {
		t.Fatalf("ReFlip (%v) should consume about as much or more energy than Serial (%v) on ddi",
			reports[ReFlip].EnergyPJ(), reports[Serial].EnergyPJ())
	}
}

// Fig. 14 ablation: Serial < +PP < +ISU < GoPIM in speed.
func TestAblationOrdering(t *testing.T) {
	reports := runAll(t, ddiWorkload(t))
	if !(reports[PlusPP].MakespanNS < reports[Serial].MakespanNS) {
		t.Fatal("+PP must beat Serial")
	}
	if !(reports[PlusISU].MakespanNS < reports[PlusPP].MakespanNS) {
		t.Fatal("+ISU must beat +PP")
	}
	if !(reports[GoPIM].MakespanNS < reports[PlusISU].MakespanNS) {
		t.Fatal("full GoPIM must beat +ISU")
	}
}

// GoPIM reduces average crossbar idle time versus the naive pipelined
// accelerator (Fig. 15).
func TestGoPIMReducesIdle(t *testing.T) {
	w := ddiWorkload(t)
	naive := Run(PlusPP, w)
	gopim := Run(GoPIM, w)
	avg := func(r Report) float64 {
		var s float64
		for _, f := range r.IdleFrac {
			s += f
		}
		return s / float64(len(r.IdleFrac))
	}
	if avg(gopim) >= avg(naive) {
		t.Fatalf("GoPIM idle %v must be below naive %v", avg(gopim), avg(naive))
	}
	// The naive pipeline's short stages idle ≳90% of the time (Fig. 4).
	maxIdle := 0.0
	for _, f := range naive.IdleFrac {
		if f > maxIdle {
			maxIdle = f
		}
	}
	if maxIdle < 0.9 {
		t.Fatalf("naive max idle = %v, want the paper's ≥90%% regime", maxIdle)
	}
}

func TestReportShape(t *testing.T) {
	r := Run(GoPIM, ddiWorkload(t))
	if r.Dataset != "ddi" || r.Kind != GoPIM {
		t.Fatalf("provenance wrong: %+v", r)
	}
	if len(r.Replicas) != 8 || len(r.StageNames) != 8 || len(r.IdleFrac) != 8 {
		t.Fatalf("ddi is a 2-layer model: want 8 stages, got %d", len(r.Replicas))
	}
	if r.StageNames[0] != "CO1" || r.StageNames[3] != "AG2" {
		t.Fatalf("stage names wrong: %v", r.StageNames)
	}
	if r.MicroBatches != (4267+63)/64 {
		t.Fatalf("micro-batches = %d", r.MicroBatches)
	}
	// GoPIM replicates aggregation far more than combination (the
	// Table VI pattern).
	if r.Replicas[1] <= r.Replicas[0] {
		t.Fatalf("AG1 replicas (%d) should exceed CO1's (%d)", r.Replicas[1], r.Replicas[0])
	}
	if r.UpdateFraction >= 1 || r.UpdateFraction <= 0 {
		t.Fatalf("GoPIM update fraction = %v, want (0,1)", r.UpdateFraction)
	}
	if Run(Serial, ddiWorkload(t)).UpdateFraction != 1 {
		t.Fatal("Serial must update everything")
	}
}

func TestCrossbarAccounting(t *testing.T) {
	w := ddiWorkload(t)
	r := Run(GoPIM, w)
	sum := 0
	for i, rep := range r.Replicas {
		sum += rep * r.CrossbarsPerStage[i]
	}
	if sum != r.CrossbarsUsed {
		t.Fatalf("crossbars used %d != Σ replicas×footprint %d", r.CrossbarsUsed, sum)
	}
	chipTotal := 16777216
	if r.CrossbarsUsed > chipTotal {
		t.Fatalf("used %d crossbars, chip has %d", r.CrossbarsUsed, chipTotal)
	}
}

func TestSerialHasNoReplicas(t *testing.T) {
	r := Run(Serial, ddiWorkload(t))
	for i, rep := range r.Replicas {
		if rep != 1 {
			t.Fatalf("Serial stage %d has %d replicas", i, rep)
		}
	}
}

func TestReFlipReplicatesCombinationOnly(t *testing.T) {
	r := Run(ReFlip, ddiWorkload(t))
	for i, name := range r.StageNames {
		isCO := name[0] == 'C'
		if !isCO && r.Replicas[i] != 1 {
			t.Fatalf("ReFlip must not replicate %s (got %d)", name, r.Replicas[i])
		}
	}
}

func TestPredictedTimesDriveAllocation(t *testing.T) {
	w := ddiWorkload(t)
	truth := Run(GoPIM, w)

	// Mildly noisy predictions must yield a similar makespan (the
	// Table VII "ML ≈ profiling" result).
	w2 := w
	w2.PredictedTimes = perturbedTimes(t, w, 1.15)
	approx := Run(GoPIM, w2)

	ratio := approx.MakespanNS / truth.MakespanNS
	if ratio > 1.25 || ratio < 0.8 {
		t.Fatalf("ML-allocated makespan off by %vx from profiled", ratio)
	}

	// Wrong-length predictions must panic.
	w3 := w
	w3.PredictedTimes = []float64{1, 2}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched prediction length")
		}
	}()
	Run(GoPIM, w3)
}

// perturbedTimes returns the workload's true stage times scaled by
// alternating ±(factor−1) noise.
func perturbedTimes(t *testing.T, w Workload, factor float64) []float64 {
	t.Helper()
	r := Run(PlusPP, w)
	times := make([]float64, len(r.StageTimesNS))
	for i, v := range r.StageTimesNS {
		if i%2 == 0 {
			times[i] = v * factor
		} else {
			times[i] = v / factor
		}
	}
	return times
}

func TestModeStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Serial: "Serial", SlimGNNLike: "SlimGNN-like", ReGraphX: "ReGraphX",
		ReFlip: "ReFlip", GoPIMVanilla: "GoPIM-Vanilla", GoPIM: "GoPIM",
		PlusPP: "+PP", PlusISU: "+ISU", Pipelayer: "Pipelayer",
	} {
		if k.String() != want {
			t.Fatalf("String(%d) = %s, want %s", int(k), k.String(), want)
		}
	}
	if len(AllBaselines()) != 6 {
		t.Fatal("Fig. 13 compares six models")
	}
}

// Every model in Kinds resolves back to itself by display name, and an
// unknown name's error offers all of them.
func TestKindsRoundTrip(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 9 {
		t.Fatalf("Kinds() has %d models, want 9", len(kinds))
	}
	for _, k := range kinds {
		got, err := KindByName(k.String())
		if err != nil || got != k {
			t.Errorf("KindByName(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	_, err := KindByName("TPU")
	if err == nil {
		t.Fatal("KindByName accepted an unknown model")
	}
	for _, k := range kinds {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("unknown-model error %q omits %s", err, k)
		}
	}
}

func TestMicroBatchSizeSweep(t *testing.T) {
	// Fig. 16(c) sweeps the micro-batch size. In this model the
	// speedup is only weakly sensitive to it (larger micro-batches
	// trade intra-batch parallelism against a shorter pipelining
	// window), so assert the sweep stays in one regime rather than a
	// strict monotone rise.
	w := ddiWorkload(t)
	var min, max float64
	for _, mb := range []int{16, 64, 256} {
		w.MicroBatch = mb
		sp := Speedup(Run(Serial, w), Run(GoPIM, w))
		if min == 0 || sp < min {
			min = sp
		}
		if sp > max {
			max = sp
		}
	}
	if max/min > 2 {
		t.Fatalf("micro-batch sweep spans %v–%v: unexpectedly unstable", min, max)
	}
	if min < 100 {
		t.Fatalf("speedup collapsed to %v in the sweep", min)
	}
}

// A chip too small to offer spare crossbars must still run: zero
// replica budget leaves every model at one replica, and GoPIM
// degrades to the pipelined-only (+PP) makespan.
func TestTinyChipGracefulDegradation(t *testing.T) {
	w := ddiWorkload(t)
	chip := reram.DefaultChip()
	chip.Tiles = 1 // 256 crossbars — less than ddi's 1196 footprint
	w.Chip = chip

	g := Run(GoPIM, w)
	for i, rep := range g.Replicas {
		if rep != 1 {
			t.Fatalf("stage %d got %d replicas with no budget", i, rep)
		}
	}
	// With no replica budget, GoPIM degenerates to its pipelined + ISU
	// core.
	isu := Run(PlusISU, w)
	if g.MakespanNS != isu.MakespanNS {
		t.Fatalf("budget-less GoPIM (%v) must equal +ISU (%v)", g.MakespanNS, isu.MakespanNS)
	}
}

// A degenerate one-vertex graph must still produce a valid schedule.
func TestSingleVertexGraph(t *testing.T) {
	d, err := graphgen.ByName("ddi")
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{
		Dataset: d,
		Deg:     graphgen.NewDegreeModel([]float64{0}),
		Seed:    1,
	}
	for _, k := range []Kind{Serial, GoPIM} {
		r := Run(k, w)
		if r.MakespanNS <= 0 || r.MicroBatches != 1 {
			t.Fatalf("%v: degenerate schedule %+v", k, r)
		}
	}
}

// The Pipelayer strawman (equal replicas everywhere) must land between
// Serial and GoPIM, and must not beat the kind-aware baselines by any
// large margin.
func TestPipelayerOrdering(t *testing.T) {
	w := ddiWorkload(t)
	serial := Run(Serial, w)
	pl := Run(Pipelayer, w)
	gopim := Run(GoPIM, w)
	if !(pl.MakespanNS < serial.MakespanNS) {
		t.Fatal("Pipelayer must beat Serial")
	}
	if !(gopim.MakespanNS < pl.MakespanNS) {
		t.Fatal("GoPIM must beat Pipelayer")
	}
	if pl.Kind != Pipelayer || Pipelayer.String() != "Pipelayer" {
		t.Fatal("kind/name wrong")
	}
}

// The degree-model memo charges each model its 8 bytes per vertex, so
// its byte bound (degModelBytes) holds whatever datasets and seeds a
// caller cycles through.
func TestDegModelMemoCountsModelBytes(t *testing.T) {
	d := graphgen.Dataset{Name: "memo-bytes", PaperVertices: 5000, PaperAvgDeg: 8}
	before := degCache.Size()
	m := DegModelFor(d, 3)
	if got, want := degCache.Size()-before, int64(8*d.PaperVertices); got != want || len(m.DegreesByIndex) != d.PaperVertices {
		t.Fatalf("memo grew by %d bytes for a %d-vertex model, want %d", got, len(m.DegreesByIndex), want)
	}
	if DegModelFor(d, 3) != m || degCache.Size()-before != int64(8*d.PaperVertices) {
		t.Fatal("a repeated lookup did not reuse the model")
	}
}
