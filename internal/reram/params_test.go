package reram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultChipValid(t *testing.T) {
	c := DefaultChip()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultChipMatchesTableII(t *testing.T) {
	c := DefaultChip()
	if c.CrossbarRows != 64 || c.CrossbarCols != 64 || c.BitsPerCell != 2 {
		t.Fatalf("crossbar geometry wrong: %+v", c)
	}
	if c.CrossbarsPerPE != 32 || c.PEsPerTile != 8 || c.Tiles != 65536 {
		t.Fatalf("hierarchy wrong: %+v", c)
	}
	if c.ReadLatencyNS != 29.31 || c.WriteLatencyNS != 50.88 {
		t.Fatalf("latencies wrong: %v/%v", c.ReadLatencyNS, c.WriteLatencyNS)
	}
	// 16 GB at 2 bits/cell → 16 777 216 crossbars.
	if got := c.TotalCrossbars(); got != 16777216 {
		t.Fatalf("TotalCrossbars = %d, want 16777216", got)
	}
	cells := int64(c.TotalCrossbars()) * int64(c.CellsPerCrossbar())
	bits := cells * int64(c.BitsPerCell)
	if bits != 16*8*1024*1024*1024 {
		t.Fatalf("array capacity = %d bits, want 16 GiB", bits)
	}
}

// Paper Table VI (Serial row for ddi): the 256×256 weight matrix of a
// Combination stage occupies 32 crossbars and the 4267×256 feature
// matrix of an Aggregation stage occupies 534.
func TestCrossbarsForMatrixMatchesTableVI(t *testing.T) {
	c := DefaultChip()
	if got := c.CrossbarsForMatrix(256, 256); got != 32 {
		t.Fatalf("CO footprint = %d crossbars, want 32 (paper Table VI)", got)
	}
	if got := c.CrossbarsForMatrix(4267, 256); got != 534 {
		t.Fatalf("AG footprint = %d crossbars, want 534 (paper Table VI)", got)
	}
}

func TestCrossbarsForMatrixEdgeCases(t *testing.T) {
	c := DefaultChip()
	if c.CrossbarsForMatrix(0, 10) != 0 || c.CrossbarsForMatrix(10, -1) != 0 {
		t.Fatal("degenerate matrices occupy no crossbars")
	}
	if got := c.CrossbarsForMatrix(1, 1); got != 2 {
		t.Fatalf("1x1 matrix = %d crossbars, want 2 (differential pair)", got)
	}
	if got := c.CrossbarsForMatrix(64, 64); got != 2 {
		t.Fatalf("64x64 = %d, want 2", got)
	}
	if got := c.CrossbarsForMatrix(65, 64); got != 4 {
		t.Fatalf("65x64 = %d, want 4", got)
	}
}

// Property: footprint is monotone in both dimensions and scales
// linearly for multiples of the crossbar size.
func TestCrossbarsForMatrixMonotone(t *testing.T) {
	c := DefaultChip()
	f := func(r, cl uint8) bool {
		rows, cols := int(r)+1, int(cl)+1
		base := c.CrossbarsForMatrix(rows, cols)
		return c.CrossbarsForMatrix(rows+1, cols) >= base &&
			c.CrossbarsForMatrix(rows, cols+1) >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := c.CrossbarsForMatrix(640, 640), 100*2; got != want {
		t.Fatalf("640x640 = %d, want %d", got, want)
	}
}

func TestTimingPrimitives(t *testing.T) {
	c := DefaultChip()
	if got := c.InputCyclesPerMVM(); got != 8 {
		t.Fatalf("InputCyclesPerMVM = %d, want 16/2 = 8", got)
	}
	if got := c.MVMNS(); math.Abs(got-8*29.31) > 1e-9 {
		t.Fatalf("MVMNS = %v, want %v", got, 8*29.31)
	}
	if got := c.WriteOpsPerRow(); got != 16 {
		t.Fatalf("WriteOpsPerRow = %d, want 64/4 = 16", got)
	}
	if got := c.RowWriteNS(); math.Abs(got-16*50.88) > 1e-9 {
		t.Fatalf("RowWriteNS = %v", got)
	}
	if got := c.RowsPerPE(); got != 2048 {
		t.Fatalf("RowsPerPE = %d, want 2048", got)
	}
}

func TestBlocksForVertices(t *testing.T) {
	c := DefaultChip()
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {64, 1}, {65, 2}, {4267, 67},
	}
	for _, tc := range cases {
		if got := c.BlocksForVertices(tc.n); got != tc.want {
			t.Fatalf("BlocksForVertices(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestEffectiveBlocks(t *testing.T) {
	c := DefaultChip()
	c.ZeroSkipMiss = 0.25
	if got := c.EffectiveBlocks(10, 100); math.Abs(got-(10+0.25*90)) > 1e-9 {
		t.Fatalf("EffectiveBlocks = %v", got)
	}
	// Clamps.
	if got := c.EffectiveBlocks(200, 100); got != 100 {
		t.Fatalf("active > total should clamp: %v", got)
	}
	if got := c.EffectiveBlocks(-5, 100); math.Abs(got-25) > 1e-9 {
		t.Fatalf("negative active should clamp to 0: %v", got)
	}
	c.ZeroSkipMiss = 0
	if got := c.EffectiveBlocks(10, 100); got != 10 {
		t.Fatalf("perfect skipping: %v", got)
	}
	c.ZeroSkipMiss = 1
	if got := c.EffectiveBlocks(10, 100); got != 100 {
		t.Fatalf("dense processing: %v", got)
	}
}

func TestExpectedActiveBlocks(t *testing.T) {
	c := DefaultChip()
	// With a huge graph and small degree, every neighbour lands in its
	// own block: active ≈ deg.
	got := c.ExpectedActiveBlocks(10, 1_000_000)
	if math.Abs(got-10) > 0.01 {
		t.Fatalf("sparse case: %v, want ≈10", got)
	}
	// With degree ≫ blocks, all blocks are active.
	got = c.ExpectedActiveBlocks(5000, 4267)
	blocks := float64(c.BlocksForVertices(4267))
	if blocks-got > 0.1 {
		t.Fatalf("dense case: %v, want ≈%v", got, blocks)
	}
	if c.ExpectedActiveBlocks(0, 100) != 0 {
		t.Fatal("zero degree → zero active blocks")
	}
	if c.ExpectedActiveBlocks(5, 0) != 0 {
		t.Fatal("empty graph → zero blocks")
	}
	// Monotone in degree.
	prev := 0.0
	for d := 1.0; d < 300; d *= 2 {
		v := c.ExpectedActiveBlocks(d, 4267)
		if v < prev {
			t.Fatalf("ExpectedActiveBlocks not monotone at deg=%v", d)
		}
		prev = v
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Chip){
		func(c *Chip) { c.CrossbarRows = 0 },
		func(c *Chip) { c.BitsPerCell = -1 },
		func(c *Chip) { c.Tiles = 0 },
		func(c *Chip) { c.WeightBits = 0 },
		func(c *Chip) { c.ReadLatencyNS = 0 },
		func(c *Chip) { c.WriteDriverCells = 0 },
		func(c *Chip) { c.ZeroSkipMiss = 1.5 },
	}
	for i, mutate := range bad {
		c := DefaultChip()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

// Cross-validate the analytic active-block estimate against an
// explicit random neighbour placement: for a vertex of degree d in an
// n-vertex graph with uniformly spread neighbour ids, the number of
// distinct 64-vertex blocks touched should match B·(1−(1−1/B)^d).
func TestExpectedActiveBlocksMatchesSampling(t *testing.T) {
	c := DefaultChip()
	rng := rand.New(rand.NewSource(9))
	n := 8192
	blocks := c.BlocksForVertices(n)
	for _, deg := range []int{1, 8, 64, 500, 4000} {
		const trials = 200
		var sum float64
		seen := make([]int, blocks)
		for tr := 0; tr < trials; tr++ {
			for i := range seen {
				seen[i] = 0
			}
			active := 0
			for e := 0; e < deg; e++ {
				b := rng.Intn(n) / c.CrossbarRows
				if seen[b] == 0 {
					seen[b] = 1
					active++
				}
			}
			sum += float64(active)
		}
		sampled := sum / trials
		analytic := c.ExpectedActiveBlocks(float64(deg), n)
		if math.Abs(sampled-analytic) > 0.05*analytic+1 {
			t.Fatalf("deg %d: sampled %v vs analytic %v", deg, sampled, analytic)
		}
	}
}

func TestWriteRetryFactorValidation(t *testing.T) {
	c := DefaultChip()
	for _, bad := range []float64{0.5, -1, math.NaN(), math.Inf(1)} {
		c.WriteRetryFactor = bad
		if err := c.Validate(); err == nil {
			t.Errorf("retry factor %v accepted", bad)
		}
	}
	for _, ok := range []float64{0, 1, 1.5, 8} {
		c.WriteRetryFactor = ok
		if err := c.Validate(); err != nil {
			t.Errorf("retry factor %v rejected: %v", ok, err)
		}
	}
}

func TestProgramRowNSRetryGate(t *testing.T) {
	c := DefaultChip()
	base := c.ProgramRowNS()
	// 0 and 1 leave the fault-free latency untouched bit for bit.
	for _, f := range []float64{0, 1} {
		c.WriteRetryFactor = f
		if got := c.ProgramRowNS(); got != base {
			t.Fatalf("retry factor %v changed ProgramRowNS: %v vs %v", f, got, base)
		}
	}
	c.WriteRetryFactor = 1.5
	if got := c.ProgramRowNS(); got != base*1.5 {
		t.Fatalf("retry factor 1.5 gives %v, want %v", got, base*1.5)
	}
}
