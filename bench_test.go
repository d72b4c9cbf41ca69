package gopim

// One benchmark per paper table/figure: `go test -bench=.` regenerates
// the whole evaluation (in Fast mode, so a full sweep stays tractable;
// run `go run ./cmd/gopim all` for the full-scale numbers recorded in
// EXPERIMENTS.md). Additional benchmarks cover the end-to-end
// accelerator simulation path for each model.

import (
	"fmt"
	"math/rand"
	"testing"

	"gopim/internal/obs"
	"gopim/internal/parallel"
	"gopim/internal/predictor"
	"gopim/internal/sparsemat"
	"gopim/internal/tensor"
)

// benchExperiment times one cold run of experiment id per iteration:
// resetting the registry empties every simmemo domain, so no iteration
// is answered from an earlier one's memo, the shared predictor's
// included.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		obs.Default().Reset()
		b.StartTimer()
		res, err := RunExperiment(id, ExperimentOptions{Seed: 1, Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// Motivation study (paper §III).
func BenchmarkFig04IdleTime(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig05AllocationExample(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig06MappingSkew(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig07OSUExample(b *testing.B)        { benchExperiment(b, "fig7") }

// Predictor study (paper §V-A and §VII-G).
func BenchmarkFig09PredictorBakeoff(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkGeneralization(b *testing.B)        { benchExperiment(b, "gen") }

// Headline evaluation (paper §VII-B/C/D).
func BenchmarkFig13Overall(b *testing.B)        { benchExperiment(b, "fig13") }
func BenchmarkFig14Ablation(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15IdleReduction(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkTab05AccuracyImpact(b *testing.B) { benchExperiment(b, "tab5") }
func BenchmarkTab06ReplicaDetails(b *testing.B) { benchExperiment(b, "tab6") }
func BenchmarkTab07MLvsProfiling(b *testing.B)  { benchExperiment(b, "tab7") }

// Sensitivity and scalability (paper §VII-E/F).
func BenchmarkFig16Sensitivity(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17Scalability(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkCoraSparse(b *testing.B)       { benchExperiment(b, "cora") }
func BenchmarkModelAblations(b *testing.B)   { benchExperiment(b, "abl") }

// End-to-end accelerator simulation, one benchmark per model on the
// paper's headline workload.
func BenchmarkSimulate(b *testing.B) {
	d, err := DatasetByName("ddi")
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []Model{Serial, SlimGNNLike, ReGraphX, ReFlip, GoPIMVanilla, GoPIM} {
		kind := kind
		b.Run(fmt.Sprint(kind), func(b *testing.B) {
			w := Workload{Dataset: d, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := Simulate(kind, w)
				if r.MakespanNS <= 0 {
					b.Fatal("degenerate simulation")
				}
			}
		})
	}
}

// Serial-vs-pool benchmarks for the parallel kernels. "workers=1" is
// the serial fallback; "workers=max" uses the default pool (GOMAXPROCS
// or GOPIM_WORKERS). Output of every kernel is byte-identical across
// the two, so these measure pure scheduling gain.

func withWorkerCounts(b *testing.B, run func(b *testing.B)) {
	b.Helper()
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			parallel.SetWorkers(bc.workers)
			defer parallel.SetWorkers(0)
			run(b)
		})
	}
}

func BenchmarkGEMM256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.NewRandom(rng, 256, 256, 1)
	y := tensor.NewRandom(rng, 256, 256, 1)
	dst := tensor.New(256, 256)
	withWorkerCounts(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(dst, x, y)
		}
	})
}

func BenchmarkSpMM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n, nnz, feats = 20_000, 200_000, 64
	entries := make([]sparsemat.Entry, 0, nnz)
	for i := 0; i < nnz; i++ {
		entries = append(entries, sparsemat.Entry{
			Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.NormFloat64(),
		})
	}
	adj := sparsemat.NewFromEntries(n, n, entries)
	h := tensor.NewRandom(rng, n, feats, 1)
	out := tensor.New(n, feats)
	withWorkerCounts(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			adj.MulDenseInto(out, h)
		}
	})
}

func BenchmarkProfileGeneration(b *testing.B) {
	spec := predictor.ProfileSpec{Seed: 1, MaxVertices: 30_000}
	withWorkerCounts(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(predictor.Generate(spec)) == 0 {
				b.Fatal("no samples")
			}
		}
	})
}

// BenchmarkAllExperimentsFast is `gopim all -fast`: the full evaluation
// sweep fanned out across the pool. Each iteration starts cold — the
// registry reset empties every simmemo domain, the shared predictor
// included, so a later iteration or worker count is not served from an
// earlier one's memo.
func BenchmarkAllExperimentsFast(b *testing.B) {
	ids := Experiments()
	withWorkerCounts(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			obs.Default().Reset()
			b.StartTimer()
			results, err := RunExperiments(ids, ExperimentOptions{Seed: 1, Fast: true})
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != len(ids) {
				b.Fatalf("got %d results", len(results))
			}
		}
	})
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationZeroSkip sweeps the zero-skip miss rate, the knob
// calibrating the AG/CO time ratio (DESIGN.md §2). arxiv's adjacency
// rows are mostly empty blocks, so the miss rate is the dominant AG
// cost there.
func BenchmarkAblationZeroSkip(b *testing.B) {
	d, err := DatasetByName("arxiv")
	if err != nil {
		b.Fatal(err)
	}
	for _, miss := range []float64{0, 0.2, 1} {
		miss := miss
		b.Run(fmt.Sprintf("miss=%.1f", miss), func(b *testing.B) {
			chip := DefaultChip()
			chip.ZeroSkipMiss = miss
			w := Workload{Dataset: d, Seed: 1, Chip: chip}
			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				last = Simulate(Serial, w).MakespanNS
			}
			b.ReportMetric(last/1e6, "makespan-ms")
		})
	}
}

// BenchmarkAblationWriteLanes sweeps the chip's concurrent write-lane
// budget, which sets the vertex-update share of aggregation time.
func BenchmarkAblationWriteLanes(b *testing.B) {
	d, err := DatasetByName("ddi")
	if err != nil {
		b.Fatal(err)
	}
	for _, lanes := range []int{1, 2, 8} {
		lanes := lanes
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			chip := DefaultChip()
			chip.WriteLanes = lanes
			w := Workload{Dataset: d, Seed: 1, Chip: chip}
			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				last = Simulate(Serial, w).MakespanNS
			}
			b.ReportMetric(last/1e6, "makespan-ms")
		})
	}
}
