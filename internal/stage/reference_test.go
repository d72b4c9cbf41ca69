package stage

import (
	"math"
	"math/rand"
	"testing"

	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/reram"
)

// avgActiveBlocksRef is avgActiveBlocks written the plain way: one
// Chip.ExpectedActiveBlocks call per vertex.
func avgActiveBlocksRef(cfg Config) float64 {
	n := cfg.Deg.N
	keep := 1 - cfg.PruneEdgeFraction
	if keep < 0 {
		keep = 0
	}
	var sum float64
	for _, d := range cfg.Deg.DegreesByIndex {
		sum += cfg.Chip.ExpectedActiveBlocks(d*keep, n)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// updateDueRef is updateDue written the plain way: a divide per layout
// slot into per-domain size and importance tallies, then one pass over
// the domains.
func updateDueRef(cfg Config, featDim int) (totalDue, maxDomainDue float64) {
	c := cfg.Chip
	n := cfg.Deg.N
	vppe := verticesPerPE(c, featDim)
	if cfg.Plan == nil || cfg.Layout == nil {
		full := float64(vppe)
		if n < vppe {
			full = float64(n)
		}
		return float64(n), full
	}
	numDomains := (n + vppe - 1) / vppe
	impPerDomain := make([]int, numDomains)
	sizePerDomain := make([]int, numDomains)
	for slot, v := range cfg.Layout.Order {
		d := slot / vppe
		sizePerDomain[d]++
		if cfg.Plan.Important[v] {
			impPerDomain[d]++
		}
	}
	staleShare := 1 / float64(cfg.Plan.StalePeriod)
	for d := 0; d < numDomains; d++ {
		due := float64(impPerDomain[d]) + float64(sizePerDomain[d]-impPerDomain[d])*staleShare
		if due > maxDomainDue {
			maxDomainDue = due
		}
		totalDue += due
	}
	return totalDue, maxDomainDue
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// testDegrees returns n power-law degrees with a few zero and negative
// entries mixed in (the model clamps deg ≤ 0 to no active blocks).
func testDegrees(rng *rand.Rand, n int) []float64 {
	degs := graphgen.PowerLawWeights(rng, n, 12, 2.1)
	for i := 0; i < n; i += 7 {
		degs[i] = 0
	}
	for i := 3; i < n; i += 11 {
		degs[i] = -degs[i]
	}
	return degs
}

func TestAvgActiveBlocksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	chip := reram.DefaultChip()
	for _, n := range []int{0, 1, 37, 64, 1000, 4267, 50_000} {
		deg := graphgen.NewDegreeModel(testDegrees(rng, n))
		for _, prune := range []float64{0, 0.5, 1, 1.5} {
			cfg := Config{Chip: chip, Deg: deg, PruneEdgeFraction: prune}
			got, want := avgActiveBlocks(cfg), avgActiveBlocksRef(cfg)
			if !sameBits(got, want) {
				t.Errorf("n=%d prune=%v: avgActiveBlocks %v, reference %v", n, prune, got, want)
			}
		}
	}
}

func TestUpdateDueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	small := reram.DefaultChip()
	small.CrossbarsPerPE = 1 // 64 rows a PE: domains of 32 or 8 vertices below
	for _, chip := range []reram.Chip{reram.DefaultChip(), small} {
		for _, n := range []int{0, 1, 37, 1000, 5000} {
			degs := testDegrees(rng, n)
			deg := graphgen.NewDegreeModel(degs)
			important := make([]bool, n)
			for v := range important {
				important[v] = rng.Intn(3) == 0
			}
			layouts := []*mapping.Layout{
				nil,
				{Order: rng.Perm(n), GroupSize: 64},
			}
			if n > 0 {
				layouts = append(layouts, mapping.InterleavedLayout(degs, 64))
			}
			plans := []*mapping.UpdatePlan{
				nil,
				{Important: important, StalePeriod: 20},
				{Important: important, StalePeriod: 3},
			}
			for _, featDim := range []int{64, 200} {
				for li, layout := range layouts {
					for pi, plan := range plans {
						cfg := Config{Chip: chip, Deg: deg, Layout: layout, Plan: plan}
						total, most := updateDue(cfg, featDim, slotImportance(cfg))
						wantTotal, wantMost := updateDueRef(cfg, featDim)
						if !sameBits(total, wantTotal) || !sameBits(most, wantMost) {
							t.Errorf("rows/PE=%d n=%d feat=%d layout %d plan %d: updateDue (%v, %v), reference (%v, %v)",
								chip.RowsPerPE(), n, featDim, li, pi, total, most, wantTotal, wantMost)
						}
					}
				}
			}
		}
	}
}

func TestActiveBlocksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	chip := reram.DefaultChip()
	for _, n := range []int{0, 1, 37, 4267} {
		for _, prune := range []float64{0, 0.5, 1.5} {
			degs := testDegrees(rng, n)
			cfg := Config{Chip: chip, Deg: graphgen.NewDegreeModel(degs), PruneEdgeFraction: prune}
			a := NewActiveBlocks(cfg)
			for step := 0; step < 5; step++ {
				if got, want := a.Mean(), avgActiveBlocksRef(cfg); !sameBits(got, want) {
					t.Fatalf("n=%d prune=%v step %d: carried mean %v, reference %v", n, prune, step, got, want)
				}
				var changed []int
				for i := 0; i < n/10+1 && n > 0; i++ {
					v := rng.Intn(n)
					degs[v] = math.Max(0, degs[v]+float64(rng.Intn(5)-2))
					changed = append(changed, v)
				}
				a.Update(degs, changed)
			}
		}
	}
}
