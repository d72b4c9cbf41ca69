package graphgen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasics(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {1, 2} /* dup */, {3, 3} /* loop */})
	if g.Edges() != 3 {
		t.Fatalf("Edges = %d, want 3 (dedup + no self loops)", g.Edges())
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %v", g.Degrees())
	}
	if got := g.AvgDegree(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("AvgDegree = %v, want 1.5", got)
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

func TestFromEdgesSymmetric(t *testing.T) {
	g := FromEdges(3, [][2]int{{2, 0}})
	if g.Adj().At(0, 2) != 1 || g.Adj().At(2, 0) != 1 {
		t.Fatal("adjacency must be symmetric")
	}
	if g.Adj().At(0, 0) != 0 {
		t.Fatal("no self loops expected")
	}
}

func TestFromEdgesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromEdges(2, [][2]int{{0, 5}})
}

// Property: any generated graph has a consistent degree sequence —
// sum of degrees equals twice the edge count, adjacency symmetric.
func TestHandshakeLemma(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *Graph
		if seed%2 == 0 {
			g = PowerLaw(rng, 2+rng.Intn(200), 4, 2.2)
		} else {
			g, _ = DCSBM(rng, DCSBMConfig{N: 4 + rng.Intn(200), Communities: 4, AvgDeg: 6, Alpha: 2.3, InFraction: 0.8})
		}
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*g.Edges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawWeightsMeanAndCap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, avg := 5000, 20.0
	w := PowerLawWeights(rng, n, avg, 2.1)
	var sum, max float64
	for _, x := range w {
		sum += x
		if x > max {
			max = x
		}
	}
	mean := sum / float64(n)
	// Capping can pull the mean slightly below target.
	if mean < avg*0.6 || mean > avg*1.05 {
		t.Fatalf("mean weight = %v, want ≈ %v", mean, avg)
	}
	if max > float64(n-1) {
		t.Fatalf("max weight %v exceeds n-1", max)
	}
	// Heavy tail: the max should dwarf the mean.
	if max < 5*mean {
		t.Fatalf("max %v vs mean %v: distribution not heavy-tailed", max, mean)
	}
}

func TestChungLuHitsTargetAverageDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, avg := 3000, 12.0
	g := PowerLaw(rng, n, avg, 2.3)
	got := g.AvgDegree()
	if got < avg*0.5 || got > avg*1.3 {
		t.Fatalf("AvgDegree = %v, want within [%v,%v]", got, avg*0.5, avg*1.3)
	}
}

func TestChungLuDegreeSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := PowerLaw(rng, 4000, 10, 2.1)
	if g.MaxDegree() < 10*int(g.AvgDegree()) {
		t.Fatalf("max degree %d not skewed vs avg %v", g.MaxDegree(), g.AvgDegree())
	}
}

func TestDCSBMCommunityStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, comm := DCSBM(rng, DCSBMConfig{N: 1200, Communities: 4, AvgDeg: 16, Alpha: 2.3, InFraction: 0.85})
	if len(comm) != g.N {
		t.Fatalf("community slice length %d != N %d", len(comm), g.N)
	}
	in, out := 0, 0
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if comm[u] == comm[v] {
					in++
				} else {
					out++
				}
			}
		}
	}
	if in <= 2*out {
		t.Fatalf("in-community edges %d should dominate cross edges %d", in, out)
	}
}

func TestDegreeModelRoundTrip(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	m := g.DegreeModel()
	if m.N != 4 || m.DegreesByIndex[0] != 3 || m.DegreesByIndex[3] != 1 {
		t.Fatalf("DegreeModel wrong: %+v", m)
	}
	if math.Abs(m.AvgDeg-1.5) > 1e-12 {
		t.Fatalf("AvgDeg = %v, want 1.5", m.AvgDeg)
	}
	if math.Abs(m.TotalEdges()-3) > 1e-12 {
		t.Fatalf("TotalEdges = %v, want 3", m.TotalEdges())
	}
}

func TestCatalogMatchesPaperTables(t *testing.T) {
	cat := Catalog()
	if len(cat) != 7 {
		t.Fatalf("catalog has %d datasets, want 7", len(cat))
	}
	ddi, err := ByName("ddi")
	if err != nil {
		t.Fatal(err)
	}
	if ddi.PaperVertices != 4267 || ddi.FeatureDim != 256 || ddi.Layers != 2 {
		t.Fatalf("ddi stats wrong: %+v", ddi)
	}
	if !ddi.Dense() || ddi.AdaptiveTheta() != 0.5 {
		t.Fatal("ddi must be dense with θ=0.5")
	}
	cora, err := ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	if cora.Dense() || cora.AdaptiveTheta() != 0.8 {
		t.Fatal("Cora must be sparse with θ=0.8")
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if got := len(EvalFive()); got != 5 {
		t.Fatalf("EvalFive returned %d datasets", got)
	}
	if got := len(MotivationSix()); got != 6 {
		t.Fatalf("MotivationSix returned %d datasets", got)
	}
}

func TestSynthDegreeModelScale(t *testing.T) {
	d, _ := ByName("ddi")
	m := d.SynthDegreeModel(1)
	if m.N != d.PaperVertices {
		t.Fatalf("N = %d, want %d", m.N, d.PaperVertices)
	}
	if m.AvgDeg < d.PaperAvgDeg*0.5 || m.AvgDeg > d.PaperAvgDeg*1.1 {
		t.Fatalf("AvgDeg = %v, want ≈ %v", m.AvgDeg, d.PaperAvgDeg)
	}
}

func TestSynthesizeNodeTask(t *testing.T) {
	d, _ := ByName("arxiv")
	inst := d.Synthesize(7, 800)
	if inst.Graph.N != 800 {
		t.Fatalf("N = %d, want 800 (capped)", inst.Graph.N)
	}
	if inst.Features.Rows != 800 || inst.Features.Cols != d.FeatureDim {
		t.Fatalf("features shape %dx%d", inst.Features.Rows, inst.Features.Cols)
	}
	if len(inst.Labels) != 800 {
		t.Fatal("node task must have labels")
	}
	seenTrain, seenTest := false, false
	for v := 0; v < 800; v++ {
		if inst.TrainMask[v] && inst.TestMask[v] {
			t.Fatal("vertex in both masks")
		}
		seenTrain = seenTrain || inst.TrainMask[v]
		seenTest = seenTest || inst.TestMask[v]
		if inst.Labels[v] < 0 || inst.Labels[v] >= d.NumClasses {
			t.Fatalf("label %d out of range", inst.Labels[v])
		}
	}
	if !seenTrain || !seenTest {
		t.Fatal("both masks should be non-empty")
	}
}

func TestSynthesizeLinkTask(t *testing.T) {
	d, _ := ByName("ddi")
	inst := d.Synthesize(9, 600)
	if inst.Labels != nil {
		t.Fatal("link task should have no labels")
	}
	if len(inst.PosEdges) == 0 || len(inst.PosEdges) != len(inst.NegEdges) {
		t.Fatalf("pos/neg split sizes: %d vs %d", len(inst.PosEdges), len(inst.NegEdges))
	}
	for _, e := range inst.NegEdges {
		if hasEdge(inst.Graph, e[0], e[1]) {
			t.Fatalf("negative pair %v is an edge", e)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	d, _ := ByName("Cora")
	a := d.Synthesize(42, 400)
	b := d.Synthesize(42, 400)
	if a.Graph.Edges() != b.Graph.Edges() {
		t.Fatal("same seed must give same graph")
	}
	if !a.Features.Equal(b.Features, 0) {
		t.Fatal("same seed must give same features")
	}
}

// AvgDegree returns the mean vertex degree.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(g.N)
}
