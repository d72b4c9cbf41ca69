package obs

// Edge-case pins for Histogram.Quantile: empty and single-observation
// histograms, out-of-range and NaN q, and linear interpolation at the
// power-of-two bucket boundaries. Quantile estimates feed BENCH files,
// so every case must be defined (never NaN) and a pure function of the
// bucket counts.

import (
	"math"
	"testing"
)

func TestQuantileEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q.empty", Sim, "")
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2, math.NaN()} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q.single", Sim, "")
	h.Observe(1500)
	// One observation is reported exactly — no bucket interpolation —
	// for every q, including the endpoints and NaN.
	for _, q := range []float64{-0.5, 0, 0.25, 0.5, 1, 3, math.NaN()} {
		if got := h.Quantile(q); got != 1500 {
			t.Errorf("single-observation Quantile(%v) = %v, want 1500", q, got)
		}
	}

	hz := r.NewHistogram("q.single_zero", Sim, "")
	hz.Observe(0)
	if got := hz.Quantile(0.5); got != 0 {
		t.Errorf("single zero observation Quantile(0.5) = %v, want 0", got)
	}
	hn := r.NewHistogram("q.single_neg", Sim, "")
	hn.Observe(-7)
	if got := hn.Quantile(0.5); got != 0 {
		t.Errorf("single negative observation Quantile(0.5) = %v, want 0 (bucket 0)", got)
	}
}

func TestQuantileNeverNaN(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q.nan", Sim, "")
	h.Observe(4)
	h.Observe(9)
	for _, q := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 7} {
		if got := h.Quantile(q); math.IsNaN(got) {
			t.Errorf("Quantile(%v) returned NaN", q)
		}
	}
	// NaN clamps to q=0, ±Inf to the nearest endpoint.
	if got, want := h.Quantile(math.NaN()), h.Quantile(0); got != want {
		t.Errorf("Quantile(NaN) = %v, want Quantile(0) = %v", got, want)
	}
	if got, want := h.Quantile(math.Inf(1)), h.Quantile(1); got != want {
		t.Errorf("Quantile(+Inf) = %v, want Quantile(1) = %v", got, want)
	}
}

func TestQuantileBucketBoundaryInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q.bounds", Sim, "")
	// Two observations in bucket 3 ([4, 8)): ranks 0 and 1.
	h.Observe(4)
	h.Observe(7)
	// q=0 → rank 0, first of 2 in the bucket: lo + 0/2·(hi−lo) = 4.
	if got := h.Quantile(0); got != 4 {
		t.Errorf("Quantile(0) = %v, want the bucket's lower bound 4", got)
	}
	// q=1 → rank 1, second of 2: lo + 1/2·(hi−lo) = 6.
	if got := h.Quantile(1); got != 6 {
		t.Errorf("Quantile(1) = %v, want midpoint 6", got)
	}

	// Across buckets: 2 in [2,4), 2 in [4,8). q=1 lands on rank 3, the
	// second of two in the upper bucket: 4 + 1/2·4 = 6.
	h2 := r.NewHistogram("q.bounds2", Sim, "")
	h2.Observe(2)
	h2.Observe(3)
	h2.Observe(5)
	h2.Observe(6)
	if got := h2.Quantile(0); got != 2 {
		t.Errorf("Quantile(0) = %v, want 2", got)
	}
	if got := h2.Quantile(1); got != 6 {
		t.Errorf("Quantile(1) = %v, want 6", got)
	}
	// q=0.5 → rank 1.5: still inside the first bucket (counts 2), at
	// lo + 1.5/2·(4−2) = 3.5.
	if got := h2.Quantile(0.5); got != 3.5 {
		t.Errorf("Quantile(0.5) = %v, want 3.5", got)
	}

	// Monotonicity in q.
	prev := math.Inf(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h2.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: Quantile(%v)=%v < previous %v", q, v, prev)
		}
		prev = v
	}
}
