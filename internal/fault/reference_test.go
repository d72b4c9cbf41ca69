package fault

import (
	"math"
	"slices"
	"testing"
)

// poissonInvRef is the stuck-cell inverse CDF written the plain way:
// accumulate the Poisson CDF term by term for every query.
func poissonInvRef(u, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 256 {
		z := math.Sqrt2 * math.Erfinv(2*u-1)
		n := int(math.Round(lambda + math.Sqrt(lambda)*z))
		if n < 0 {
			n = 0
		}
		return n
	}
	p := math.Exp(-lambda)
	cdf := p
	n := 0
	for u >= cdf && n < 1<<20 {
		n++
		p *= lambda / float64(n)
		cdf += p
	}
	return n
}

// TestPoissonInvMatchesLoop pins the precomputed law to the loop at
// u = 0, at every partial sum the loop can stop on and its float
// neighbours, and at the largest uniform below 1. At λ=256 the sum
// saturates below that u, so the loop runs to its cap.
func TestPoissonInvMatchesLoop(t *testing.T) {
	for _, lambda := range []float64{0, -1, 1e-9, 1, 4.5, 255.9, 256, 256.1, 1e4} {
		p := newPoisson(lambda)
		us := []float64{0, 0.5, 1 - 0x1p-53}
		for _, c := range p.cdf {
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
		}
		for z := -6.0; z <= 6; z += 0.25 {
			us = append(us, 0.5*math.Erfc(-z/math.Sqrt2))
		}
		slices.Sort(us)
		capped := false
		for _, u := range slices.Compact(us) {
			if u < 0 || u >= 1 {
				continue
			}
			got, want := p.inv(u), poissonInvRef(u, lambda)
			if got != want {
				t.Fatalf("λ=%v u=%v: inv %d, loop %d", lambda, u, got, want)
			}
			capped = capped || want == 1<<20
		}
		if lambda == 256 && !capped {
			t.Errorf("λ=256: no u reached the loop's cap; the saturation case is untested")
		}
	}
}

// TestModelLawsMatchLoop checks the cached per-cell-count laws end to
// end: every view of a crossbar's verdict equals the loop's.
func TestModelLawsMatchLoop(t *testing.T) {
	m := MustNew(Config{Rate: 0.01, Seed: 9, WearWritesPerCell: 8e7})
	for _, cells := range []int{-3, 0, 1, 64, 4096, 65536} {
		lambda := float64(cells) * m.EffectiveRate()
		for id := int64(0); id < 512; id++ {
			want := 0
			if cells > 0 {
				want = min(poissonInvRef(uniform(m.cfg.Seed, id), lambda), cells)
			}
			if got := m.StuckCells(id, cells); got != want {
				t.Fatalf("cells=%d id=%d: StuckCells %d, loop %d", cells, id, got, want)
			}
			dead := cells > 0 && float64(want) > m.cfg.RetireThreshold*float64(cells)
			if m.CrossbarRetired(id, cells) != dead {
				t.Fatalf("cells=%d id=%d: CrossbarRetired disagrees with the loop", cells, id)
			}
		}
		flags := m.DeadGroups(512, cells)
		for id, d := range flags[:min(len(flags), 512)] {
			if d != m.CrossbarRetired(int64(id), cells) {
				t.Fatalf("cells=%d: DeadGroups[%d] disagrees with CrossbarRetired", cells, id)
			}
		}
	}
}
