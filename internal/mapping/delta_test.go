package mapping

import (
	"math/rand"
	"reflect"
	"testing"
)

// layoutsEqual compares every field that affects placement or timing,
// including the unexported inverse index and rank order.
func layoutsEqual(a, b *Layout) bool {
	return reflect.DeepEqual(a.Order, b.Order) &&
		a.GroupSize == b.GroupSize &&
		a.Policy == b.Policy &&
		reflect.DeepEqual(a.PhysGroups, b.PhysGroups) &&
		reflect.DeepEqual(a.slotOf, b.slotOf) &&
		reflect.DeepEqual(a.byDeg, b.byDeg)
}

// mutate applies count random degree perturbations and returns the
// changed vertex ids.
func mutate(rng *rand.Rand, degs []float64, count int) []int {
	changed := make([]int, 0, count)
	for i := 0; i < count; i++ {
		v := rng.Intn(len(degs))
		degs[v] += float64(rng.Intn(7) - 3)
		if degs[v] < 0 {
			degs[v] = 0
		}
		changed = append(changed, v)
	}
	return changed
}

// TestApplyDeltaMatchesFullRemap pins the tentpole contract: a chain of
// incremental deltas is bitwise-equal to rebuilding the interleaved
// layout from scratch on the mutated degree sequence, with and without
// retired crossbars, across sizes that exercise the spill path. The
// ranking each delta carries must also yield the plan NewUpdatePlan
// builds from the mutated degrees, on both the incremental and the
// full-remap path.
func TestApplyDeltaMatchesFullRemap(t *testing.T) {
	sawFull := false
	for _, tc := range []struct {
		name      string
		n, gs     int
		deadEvery int // retire crossbar ids divisible by this (0 = none)
	}{
		{"exact-multiple", 64, 8, 0},
		{"short-last-group", 61, 8, 0},
		{"tiny", 5, 4, 0},
		{"healthy-routing", 64, 8, 3},
		{"short-and-dead", 61, 8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			degs := make([]float64, tc.n)
			for i := range degs {
				degs[i] = float64(rng.Intn(40))
			}
			var dead []bool
			if tc.deadEvery > 0 {
				dead = make([]bool, numGroups(tc.n, tc.gs))
				for i := range dead {
					if i%tc.deadEvery == 0 {
						dead[i] = true
					}
				}
			}
			cur := InterleavedLayout(degs, tc.gs)
			if dead != nil {
				cur = InterleavedLayoutHealthy(degs, tc.gs, dead)
			}
			sawIncremental := false
			for step := 0; step < 50; step++ {
				changed := mutate(rng, degs, 1+rng.Intn(4))
				var stats DeltaStats
				cur, stats = cur.ApplyDelta(degs, changed, dead)
				if stats.Full {
					sawFull = true
				} else {
					sawIncremental = true
				}
				want := InterleavedLayout(degs, tc.gs)
				if dead != nil {
					want = InterleavedLayoutHealthy(degs, tc.gs, dead)
				}
				if !layoutsEqual(cur, want) {
					t.Fatalf("step %d (changed %v, full=%v): delta layout diverged\n got order %v\nwant order %v",
						step, changed, stats.Full, cur.Order, want.Order)
				}
				if !isPermutation(cur.Order) {
					t.Fatalf("step %d: order not a permutation: %v", step, cur.Order)
				}
				theta := []float64{0.5, 0.8, 0.1, 1}[step%4]
				if got, want := cur.UpdatePlan(theta, 20), NewUpdatePlan(degs, theta, 20); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (full=%v): layout plan %v, want %v", step, stats.Full, got.Important, want.Important)
				}
			}
			if !sawIncremental {
				t.Fatal("every step fell back to a full remap; incremental path untested")
			}
		})
	}
	if !sawFull {
		t.Fatal("no step fell back to a full remap; full-remap path untested")
	}
}

// TestApplyDeltaNoChange: an empty delta must return an identical
// layout and zero stats (the churn loop calls this every quiet epoch).
func TestApplyDeltaNoChange(t *testing.T) {
	degs := []float64{9, 3, 5, 5, 1, 7, 2, 8, 4, 6}
	l := InterleavedLayout(degs, 4)
	got, stats := l.ApplyDelta(degs, nil, nil)
	if stats != (DeltaStats{}) {
		t.Fatalf("no-op delta reported work: %+v", stats)
	}
	if !layoutsEqual(got, l) {
		t.Fatalf("no-op delta changed the layout: %v vs %v", got.Order, l.Order)
	}
}

// TestApplyDeltaFallbacks checks the three full-remap triggers report
// Full and still match a from-scratch build.
func TestApplyDeltaFallbacks(t *testing.T) {
	degs := []float64{9, 3, 5, 5, 1, 7, 2, 8, 4, 6}
	l := InterleavedLayout(degs, 4)

	// Vertex-count change (streaming insert grew the graph).
	grown := append(append([]float64(nil), degs...), 11, 0.5)
	got, stats := l.ApplyDelta(grown, []int{10, 11}, nil)
	if !stats.Full {
		t.Fatal("size change must force a full remap")
	}
	if !layoutsEqual(got, InterleavedLayout(grown, 4)) {
		t.Fatalf("grown remap wrong: %v", got.Order)
	}

	// Majority churn.
	many := append([]float64(nil), degs...)
	changed := make([]int, 0, 8)
	for v := 0; v < 8; v++ {
		many[v] += 1
		changed = append(changed, v)
	}
	if _, stats := l.ApplyDelta(many, changed, nil); !stats.Full {
		t.Fatal("majority churn must force a full remap")
	}

	// Rank window reaching the spill region of a short last group:
	// demote the top vertex to the bottom so the window spans all ranks.
	spill := append([]float64(nil), degs...)
	spill[0] = -1
	got, stats = l.ApplyDelta(spill, []int{0}, nil)
	if !stats.Full {
		t.Fatal("spill-window delta must force a full remap")
	}
	if !layoutsEqual(got, InterleavedLayout(spill, 4)) {
		t.Fatalf("spill remap wrong: %v", got.Order)
	}
}

// TestApplyDeltaStatsCountMoves: moved-stripe accounting must reflect
// real occupant changes, not the size of the changed set.
func TestApplyDeltaStatsCountMoves(t *testing.T) {
	degs := []float64{40, 30, 20, 10, 8, 6, 4, 2} // 8 vertices, 2 groups of 4
	l := InterleavedLayout(degs, 4)
	// Swap the ranks of two adjacent vertices: exactly their two slots move.
	next := append([]float64(nil), degs...)
	next[4], next[5] = 6, 8
	got, stats := l.ApplyDelta(next, []int{4, 5}, nil)
	if stats.Full {
		t.Fatalf("adjacent swap should patch incrementally, got %+v", stats)
	}
	if stats.StripesMoved != 2 {
		t.Fatalf("StripesMoved = %d, want 2", stats.StripesMoved)
	}
	if stats.GroupsTouched < 1 || stats.GroupsTouched > 2 {
		t.Fatalf("GroupsTouched = %d, want 1..2", stats.GroupsTouched)
	}
	if !layoutsEqual(got, InterleavedLayout(next, 4)) {
		t.Fatalf("swap remap wrong: %v", got.Order)
	}
}

// TestApplyDeltaRequiresInterleaved: index layouts carry no rank order
// to patch — the call is a programming error and must say so loudly.
func TestApplyDeltaRequiresInterleaved(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyDelta on an index layout must panic")
		}
	}()
	IndexLayout(8, 4).ApplyDelta(make([]float64, 8), nil, nil)
}

// TestHealthyPhysGroupsFullyDeadGroup is the satellite regression: when
// every listed crossbar is retired, routing must shift all logical
// groups past the dead region with distinct, increasing physical ids —
// and leave the degree-striped placement itself untouched.
func TestHealthyPhysGroupsFullyDeadGroup(t *testing.T) {
	degs := make([]float64, 32)
	for i := range degs {
		degs[i] = float64(32 - i)
	}
	dead := make([]bool, 4) // every crossbar in the logical range dead
	for i := range dead {
		dead[i] = true
	}
	l := InterleavedLayoutHealthy(degs, 8, dead)
	plain := InterleavedLayout(degs, 8)
	if !reflect.DeepEqual(l.Order, plain.Order) {
		t.Fatal("dead routing must not disturb the logical placement")
	}
	seen := map[int]bool{}
	for g := 0; g < l.NumGroups(); g++ {
		p := l.PhysGroupOf(g)
		if p < len(dead) && dead[p] {
			t.Fatalf("group %d routed onto dead crossbar %d", g, p)
		}
		if seen[p] {
			t.Fatalf("physical crossbar %d assigned twice", p)
		}
		seen[p] = true
	}
	if got, want := l.PhysGroupOf(0), len(dead); got != want {
		t.Fatalf("first group should land just past the dead region: got %d, want %d", got, want)
	}
}
