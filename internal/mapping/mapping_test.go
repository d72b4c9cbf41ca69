package mapping

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gopim/internal/graphgen"
)

func TestIndexLayoutOrder(t *testing.T) {
	l := IndexLayout(10, 4)
	if l.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3", l.NumGroups())
	}
	for v := 0; v < 10; v++ {
		if l.Order[v] != v {
			t.Fatalf("index layout must keep order, got %v", l.Order)
		}
	}
	if got := l.GroupVertices(2); len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Fatalf("short tail group wrong: %v", got)
	}
}

// isPermutation checks a layout maps every vertex exactly once.
func isPermutation(order []int) bool {
	seen := make([]bool, len(order))
	for _, v := range order {
		if v < 0 || v >= len(order) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Property: both layouts are permutations for any size and group size.
func TestLayoutsArePermutations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		gs := 1 + rng.Intn(10)
		degs := make([]float64, n)
		for i := range degs {
			degs[i] = float64(rng.Intn(1000))
		}
		return isPermutation(IndexLayout(n, gs).Order) &&
			isPermutation(InterleavedLayout(degs, gs).Order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The paper Fig. 12 example: 8 vertices with degrees
// 300, 500, 250, 450, 2, 15, 10, 1 and 4-row crossbars.
func paperExampleDegrees() []float64 { return []float64{300, 500, 250, 450, 2, 15, 10, 1} }

func TestInterleavedBalancesPaperExample(t *testing.T) {
	degs := paperExampleDegrees()
	l := InterleavedLayout(degs, 4)
	avgs := l.GroupAvgDegrees(degs)
	if len(avgs) != 2 {
		t.Fatalf("want 2 groups, got %d", len(avgs))
	}
	// Interleaving puts two high-degree and two low-degree vertices on
	// each crossbar: group averages are close (paper: both crossbars
	// keep V2,V4 / V1,V3 plus two low-degree vertices each).
	lo, hi := MinMax(avgs)
	if hi-lo > 30 {
		t.Fatalf("interleaved group averages should be near-equal, got %v", avgs)
	}

	idx := IndexLayout(8, 4)
	iavgs := idx.GroupAvgDegrees(degs)
	ilo, ihi := MinMax(iavgs)
	// Index order puts all hubs on crossbar 1: massive skew.
	if ihi-ilo < 300 {
		t.Fatalf("index layout should be skewed, got %v", iavgs)
	}
}

// Paper Fig. 7 (OSU): with index mapping and θ=0.5 selective updating,
// all four important vertices (V1–V4) sit on crossbar 1, so the
// slowest crossbar still writes 4 rows — zero benefit. Fig. 12 (ISU):
// interleaving drops the max to 2 rows.
func TestOSUvsISUPaperExample(t *testing.T) {
	degs := paperExampleDegrees()
	plan := NewUpdatePlan(degs, 0.5, 20)

	osu := IndexLayout(8, 4)
	if got := osu.MaxUpdatedRows(plan, 1); got != 4 {
		t.Fatalf("OSU max updated rows = %d, want 4 (no reduction, Fig. 7)", got)
	}
	isu := InterleavedLayout(degs, 4)
	if got := isu.MaxUpdatedRows(plan, 1); got != 2 {
		t.Fatalf("ISU max updated rows = %d, want 2 (Fig. 12)", got)
	}
	// On refresh epochs everything is written either way.
	if osu.MaxUpdatedRows(plan, 0) != 4 || isu.MaxUpdatedRows(plan, 0) != 4 {
		t.Fatal("refresh epoch must write all rows")
	}
}

func TestUpdatePlanSelection(t *testing.T) {
	degs := []float64{5, 100, 1, 50}
	p := NewUpdatePlan(degs, 0.5, 20)
	if !p.Important[1] || !p.Important[3] {
		t.Fatalf("top-2 by degree should be vertices 1 and 3: %v", p.Important)
	}
	if p.Important[0] || p.Important[2] {
		t.Fatalf("low-degree vertices must not be important: %v", p.Important)
	}
	if !p.UpdatedThisEpoch(1, 7) {
		t.Fatal("important vertices update every epoch")
	}
	if p.UpdatedThisEpoch(0, 7) {
		t.Fatal("unimportant vertex must not update on epoch 7")
	}
	if !p.UpdatedThisEpoch(0, 40) {
		t.Fatal("unimportant vertex must update on refresh epoch")
	}
}

func TestUpdatePlanEdgeCases(t *testing.T) {
	// theta > 0 with tiny n still selects at least one vertex.
	p := NewUpdatePlan([]float64{3, 1, 2}, 0.1, 20)
	count := 0
	for _, b := range p.Important {
		if b {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("tiny theta should select 1 vertex, got %d", count)
	}
	// theta = 0 selects none.
	p0 := NewUpdatePlan([]float64{3, 1}, 0, 20)
	for _, b := range p0.Important {
		if b {
			t.Fatal("theta=0 must select no vertices")
		}
	}
	// Full plan.
	fp := FullUpdatePlan(4)
	if fp.AvgUpdateFraction() != 1 {
		t.Fatal("full plan updates everything")
	}
	for _, bad := range []func(){
		func() { NewUpdatePlan(nil, -0.1, 20) },
		func() { NewUpdatePlan(nil, 1.1, 20) },
		func() { NewUpdatePlan(nil, 0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestAvgUpdateFraction(t *testing.T) {
	p := &UpdatePlan{Theta: 0.5, StalePeriod: 20}
	want := 0.5 + 0.5/20
	if got := p.AvgUpdateFraction(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("AvgUpdateFraction = %v, want %v", got, want)
	}
}

func TestAdaptiveTheta(t *testing.T) {
	if AdaptiveTheta(500.5) != 0.5 {
		t.Fatal("dense graphs use θ=0.5")
	}
	if AdaptiveTheta(3.9) != 0.8 {
		t.Fatal("sparse graphs use θ=0.8")
	}
	if AdaptiveTheta(8) != 0.8 {
		t.Fatal("avg degree exactly 8 is classified sparse (paper: ≤ 8)")
	}
}

// Property: with θ-selective updating, the interleaved layout's
// slowest crossbar never writes more than one row beyond the index
// layout's slowest crossbar — interleaving places important vertices
// round-robin, so its max is the ceiling of the mean, while any other
// layout's max is at least the mean.
func TestInterleavedNeverWorseOnUpdates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 * (2 + rng.Intn(10))
		degs := graphgen.PowerLawWeights(rng, n, 20, 2.1)
		theta := []float64{0.2, 0.5, 0.8}[rng.Intn(3)]
		plan := NewUpdatePlan(degs, theta, 20)
		idx := IndexLayout(n, 64).MaxUpdatedRows(plan, 1)
		il := InterleavedLayout(degs, 64).MaxUpdatedRows(plan, 1)
		return il <= idx+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// On power-law degree sequences the interleaved layout typically cuts
// the per-crossbar average-degree spread dramatically versus index
// order (paper Fig. 6 vs Fig. 11). Checked on fixed seeds: the claim
// is statistical, not adversarial (a single mega-hub inflates either
// layout's spread by deg/groupSize).
func TestInterleavedReducesSkewTypically(t *testing.T) {
	wins := 0
	const trials = 20
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 64 * 8
		degs := graphgen.PowerLawWeights(rng, n, 20, 2.1)
		ilo, ihi := MinMax(IndexLayout(n, 64).GroupAvgDegrees(degs))
		slo, shi := MinMax(InterleavedLayout(degs, 64).GroupAvgDegrees(degs))
		if shi-slo <= ihi-ilo {
			wins++
		}
	}
	if wins < trials*3/4 {
		t.Fatalf("interleaved beat index spread only %d/%d times", wins, trials)
	}
}

// Property: with interleaving, selective updating reduces the critical
// write path by roughly θ on every crossbar.
func TestInterleavedSelectiveCutsAllGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 1024
	degs := graphgen.PowerLawWeights(rng, n, 30, 2.1)
	l := InterleavedLayout(degs, 64)
	plan := NewUpdatePlan(degs, 0.5, 20)
	for g, rows := range l.UpdatedRowsPerGroup(plan, 3) {
		if rows < 28 || rows > 36 {
			t.Fatalf("group %d updates %d rows, want ≈32 (θ=0.5 of 64)", g, rows)
		}
	}
}

func TestGroupAvgDegreesEmptyAndSingle(t *testing.T) {
	l := IndexLayout(0, 4)
	if got := l.GroupAvgDegrees(nil); len(got) != 0 {
		t.Fatalf("empty layout should have no groups: %v", got)
	}
	one := IndexLayout(1, 64)
	avgs := one.GroupAvgDegrees([]float64{7})
	if len(avgs) != 1 || avgs[0] != 7 {
		t.Fatalf("single vertex group avg = %v", avgs)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 2})
	if lo != -1 || hi != 3 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatal("MinMax(nil) should be 0,0")
	}
}

// A fault-aware interleaved layout must keep the logical striping —
// and with it the degree-mix invariant — bit-identical to the healthy
// layout, while routing every logical group around dead crossbars.
func TestInterleavedLayoutHealthySkipsDead(t *testing.T) {
	degs := make([]float64, 300)
	for i := range degs {
		degs[i] = float64((i * 37) % 100)
	}
	dead := []bool{false, true, false, false, true} // crossbars 1 and 4 fully dead
	l := InterleavedLayoutHealthy(degs, 64, dead)
	ref := InterleavedLayout(degs, 64)

	// Logical placement identical → every timing quantity unchanged.
	for p, v := range ref.Order {
		if l.Order[p] != v {
			t.Fatalf("slot %d: healthy layout reordered vertices (%d vs %d)", p, l.Order[p], v)
		}
	}

	// Physical ids skip the dead crossbars, in order, without reuse.
	seen := map[int]bool{}
	for g := 0; g < l.NumGroups(); g++ {
		phys := l.PhysGroupOf(g)
		if phys < len(dead) && dead[phys] {
			t.Fatalf("logical group %d landed on dead crossbar %d", g, phys)
		}
		if seen[phys] {
			t.Fatalf("crossbar %d assigned twice", phys)
		}
		seen[phys] = true
	}
	// 300 vertices / 64 = 5 logical groups over dead {1,4}: 0,2,3,5,6.
	want := []int{0, 2, 3, 5, 6}
	for g, w := range want {
		if l.PhysGroupOf(g) != w {
			t.Fatalf("group %d on crossbar %d, want %d", g, l.PhysGroupOf(g), w)
		}
	}

	// Degree-mix invariant: the per-group average degree spread matches
	// the fault-free interleaved layout exactly.
	gotMin, gotMax := MinMax(l.GroupAvgDegrees(degs))
	wantMin, wantMax := MinMax(ref.GroupAvgDegrees(degs))
	if gotMin != wantMin || gotMax != wantMax {
		t.Fatalf("degree mix changed: [%v,%v] vs [%v,%v]", gotMin, gotMax, wantMin, wantMax)
	}
}

// Without dead flags the healthy layout is the identity mapping, and
// the plain layout reports identity physical groups.
func TestPhysGroupIdentityDefaults(t *testing.T) {
	degs := []float64{5, 4, 3, 2, 1, 0}
	plain := InterleavedLayout(degs, 2)
	for g := 0; g < plain.NumGroups(); g++ {
		if plain.PhysGroupOf(g) != g {
			t.Fatalf("plain layout group %d on crossbar %d", g, plain.PhysGroupOf(g))
		}
	}
	l := InterleavedLayoutHealthy(degs, 2, nil)
	for g := 0; g < l.NumGroups(); g++ {
		if l.PhysGroupOf(g) != g {
			t.Fatalf("nil-dead healthy layout group %d on crossbar %d", g, l.PhysGroupOf(g))
		}
	}
}

// PhysGroupOf returns the physical crossbar id of logical group g.
func (l *Layout) PhysGroupOf(g int) int {
	if l.PhysGroups == nil {
		return g
	}
	return l.PhysGroups[g]
}
