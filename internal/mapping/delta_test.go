package mapping

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// layoutsEqual compares every field that affects placement or timing,
// including the unexported rank order, and checks that the rank keys a
// layout carries, where it has built them, are those of its ranking.
func layoutsEqual(a, b *Layout, degs []float64) bool {
	return a.Equal(b) && keysCurrent(a, degs) && keysCurrent(b, degs)
}

// keysCurrent reports whether the layout's carried rank keys, if
// built, are the keys of degs along its ranking.
func keysCurrent(l *Layout, degs []float64) bool {
	if l.delta == nil || len(l.delta.keys) == 0 {
		return true
	}
	if len(l.delta.keys) != len(l.byDeg) {
		return false
	}
	for k, v := range l.byDeg {
		if l.delta.keys[k] != descKey(degs[v]) {
			return false
		}
	}
	return true
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
				prevOrder := slices.Clone(cur.Order) // ApplyDelta updates cur in place
				stats := cur.ApplyDelta(degs, changed, dead)
				if stats.Full {
					sawFull = true
				} else {
					sawIncremental = true
				}
				want := InterleavedLayout(degs, tc.gs)
				if dead != nil {
					want = InterleavedLayoutHealthy(degs, tc.gs, dead)
				}
				if !layoutsEqual(cur, want, degs) {
					t.Fatalf("step %d (changed %v, full=%v): delta layout diverged\n got order %v\nwant order %v",
						step, changed, stats.Full, cur.Order, want.Order)
				}
				if !isPermutation(cur.Order) {
					t.Fatalf("step %d: order not a permutation: %v", step, cur.Order)
				}
				if want := recountStats(prevOrder, cur); stats.StripesMoved != want.StripesMoved ||
					stats.GroupsTouched != want.GroupsTouched {
					t.Fatalf("step %d (full=%v): stats moved %d / groups %d, recount %d / %d",
						step, stats.Full, stats.StripesMoved, stats.GroupsTouched,
						want.StripesMoved, want.GroupsTouched)
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

// TestApplyDeltaNoChange: an empty delta must leave the layout as built
// and report zero stats (the churn loop calls this every quiet epoch).
func TestApplyDeltaNoChange(t *testing.T) {
	degs := []float64{9, 3, 5, 5, 1, 7, 2, 8, 4, 6}
	l := InterleavedLayout(degs, 4)
	if stats := l.ApplyDelta(degs, nil, nil); stats != (DeltaStats{}) {
		t.Fatalf("no-op delta reported work: %+v", stats)
	}
	if want := InterleavedLayout(degs, 4); !layoutsEqual(l, want, degs) {
		t.Fatalf("no-op delta changed the layout: %v vs %v", l.Order, want.Order)
	}
}

// TestApplyDeltaFallbacks checks the three full-remap triggers report
// Full and still match a from-scratch build.
func TestApplyDeltaFallbacks(t *testing.T) {
	degs := []float64{9, 3, 5, 5, 1, 7, 2, 8, 4, 6}

	// Vertex-count change (streaming insert grew the graph).
	l := InterleavedLayout(degs, 4)
	grown := append(slices.Clone(degs), 11, 0.5)
	if stats := l.ApplyDelta(grown, []int{10, 11}, nil); !stats.Full {
		t.Fatal("size change must force a full remap")
	}
	if !layoutsEqual(l, InterleavedLayout(grown, 4), grown) {
		t.Fatalf("grown remap wrong: %v", l.Order)
	}

	// Majority churn.
	l = InterleavedLayout(degs, 4)
	many := slices.Clone(degs)
	changed := make([]int, 0, 8)
	for v := 0; v < 8; v++ {
		many[v] += 1
		changed = append(changed, v)
	}
	if stats := l.ApplyDelta(many, changed, nil); !stats.Full {
		t.Fatal("majority churn must force a full remap")
	}

	// Rank window reaching the spill region of a short last group:
	// demote the top vertex to the bottom so the window spans all ranks.
	l = InterleavedLayout(degs, 4)
	spill := slices.Clone(degs)
	spill[0] = -1
	if stats := l.ApplyDelta(spill, []int{0}, nil); !stats.Full {
		t.Fatal("spill-window delta must force a full remap")
	}
	if !layoutsEqual(l, InterleavedLayout(spill, 4), spill) {
		t.Fatalf("spill remap wrong: %v", l.Order)
	}
}

// TestApplyDeltaChainAcrossFallbacks runs one layout through a chain
// that falls back to a full remap mid-run on each trigger (a spill
// window, a majority re-rank, a vertex-count change) and continues
// incrementally after each. Every step must equal a from-scratch build,
// and once a chain is warm its incremental steps must work in the same
// two rank buffers, fallbacks included.
func TestApplyDeltaChainAcrossFallbacks(t *testing.T) {
	const gs = 8
	rng := rand.New(rand.NewSource(41))
	degs := make([]float64, 61) // short last group: a spill region exists
	for i := range degs {
		degs[i] = float64(rng.Intn(40))
	}
	l := InterleavedLayout(degs, gs)
	// step applies one delta, checks it against a fresh build and
	// reports whether it fell back.
	step := func(name string, changed []int) bool {
		t.Helper()
		stats := l.ApplyDelta(degs, changed, nil)
		if !layoutsEqual(l, InterleavedLayout(degs, gs), degs) {
			t.Fatalf("%s (full=%v): layout diverged from a fresh build", name, stats.Full)
		}
		return stats.Full
	}
	// incremental runs small deltas and checks that consecutive
	// incremental steps rank into the same two arrays (a fallback
	// installs a fresh ranking, so the pair starts over).
	incremental := func(name string) {
		t.Helper()
		var bufs [2]*int
		patched := false
		for i := 0; i < 20; i++ {
			if step(name, mutate(rng, degs, 1)) {
				bufs = [2]*int{}
				continue
			}
			patched = true
			cur := [2]*int{&l.byDeg[0], &l.delta.spareRank[0]}
			if bufs[0] != nil && cur != bufs && cur != [2]*int{bufs[1], bufs[0]} {
				t.Fatalf("%s: incremental step %d ranked into a new buffer", name, i)
			}
			bufs = cur
		}
		if !patched {
			t.Fatalf("%s: no step patched incrementally", name)
		}
	}
	incremental("warm-up")

	// Spill: the top vertex drops to the bottom rank.
	top := l.byDeg[0]
	degs[top] = -1
	if !step("spill", []int{top}) {
		t.Fatal("a window reaching the spill rank must fall back")
	}
	incremental("after spill")

	// Majority re-rank.
	var many []int
	for v := range degs[:40] {
		degs[v]++
		many = append(many, v)
	}
	if !step("majority", many) {
		t.Fatal("re-ranking most vertices must fall back")
	}
	incremental("after majority")

	// Vertex-count change: the buffers resize, then stay put again.
	degs = append(degs, 17, 3, 0)
	if !step("grown", []int{61, 62, 63}) {
		t.Fatal("a vertex-count change must fall back")
	}
	incremental("after growth")
}

// TestApplyDeltaStatsCountMoves: moved-stripe accounting must reflect
// real occupant changes, not the size of the changed set.
func TestApplyDeltaStatsCountMoves(t *testing.T) {
	degs := []float64{40, 30, 20, 10, 8, 6, 4, 2} // 8 vertices, 2 groups of 4
	l := InterleavedLayout(degs, 4)
	// Swap the ranks of two adjacent vertices: exactly their two slots move.
	next := slices.Clone(degs)
	next[4], next[5] = 6, 8
	stats := l.ApplyDelta(next, []int{4, 5}, nil)
	if stats.Full {
		t.Fatalf("adjacent swap should patch incrementally, got %+v", stats)
	}
	if stats.StripesMoved != 2 {
		t.Fatalf("StripesMoved = %d, want 2", stats.StripesMoved)
	}
	if stats.GroupsTouched < 1 || stats.GroupsTouched > 2 {
		t.Fatalf("GroupsTouched = %d, want 1..2", stats.GroupsTouched)
	}
	if !layoutsEqual(l, InterleavedLayout(next, 4), next) {
		t.Fatalf("swap remap wrong: %v", l.Order)
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

// FuzzApplyDelta runs TestApplyDeltaMatchesFullRemap's harness over
// fuzzed inputs: seed drives the degrees and the mutations, n (1–400)
// and the group size (1–16) the shape, steps (0–63) the chain length
// and burst the largest mutation per step (large bursts reach the
// full-remap fallback). deadMask retires group g when bit g%64 is set
// (0 = a healthy chip, dead == nil), and waveMask retires more groups
// halfway through the chain. levels (0 = 40) is the number of distinct
// starting degrees, and negZero stores the zero degrees at odd ids as
// −0 after every step. Every changed list repeats some of its ids
// (the contract tolerates duplicates). After every step the layout must
// equal a from-scratch InterleavedLayout/InterleavedLayoutHealthy of
// the mutated degrees, its order must be a permutation, and DeltaStats
// must equal a recount of the slots whose occupant changed.
func FuzzApplyDelta(f *testing.F) {
	f.Add(int64(7), uint16(64), uint8(8), uint64(0), uint64(0), uint8(50), uint8(3), uint8(0), false)
	f.Add(int64(7), uint16(61), uint8(8), uint64(0x5555), uint64(0), uint8(50), uint8(3), uint8(0), false)
	f.Add(int64(3), uint16(5), uint8(4), uint64(0), uint64(1), uint8(10), uint8(0), uint8(0), false)
	f.Add(int64(11), uint16(300), uint8(3), uint64(0x9), uint64(0xf0), uint8(40), uint8(200), uint8(0), false)
	f.Add(int64(5), uint16(1), uint8(1), uint64(1), uint64(0), uint8(5), uint8(1), uint8(0), false)
	// Small bursts after a retirement wave: incremental steps must pick
	// up the new routing.
	f.Add(int64(13), uint16(64), uint8(8), uint64(0), uint64(0x30), uint8(40), uint8(2), uint8(0), false)
	f.Add(int64(17), uint16(61), uint8(8), uint64(0x5), uint64(0x30), uint8(40), uint8(2), uint8(0), false)
	// Few degree levels: changed and unchanged vertices tie on degree,
	// so the merge's id tie-break decides most ranks; with negZero the
	// zero degrees at odd ids are −0, which must rank as +0.
	f.Add(int64(19), uint16(200), uint8(8), uint64(0), uint64(0), uint8(30), uint8(20), uint8(2), false)
	f.Add(int64(23), uint16(61), uint8(8), uint64(0), uint64(0x3), uint8(30), uint8(6), uint8(3), true)
	f.Add(int64(29), uint16(128), uint8(4), uint64(0), uint64(0), uint8(12), uint8(40), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, gs8 uint8, deadMask, waveMask uint64, steps8, burst, levels uint8, negZero bool) {
		n := max(1, int(n16)%401)
		gs := max(1, int(gs8)%17)
		steps := int(steps8) % 64
		span := 40
		if levels > 0 {
			span = int(levels)
		}
		rng := rand.New(rand.NewSource(seed))
		degs := make([]float64, n)
		for i := range degs {
			degs[i] = float64(rng.Intn(span))
		}
		signZeros := func() {
			for i := 1; negZero && i < n; i += 2 {
				if degs[i] == 0 {
					degs[i] = math.Copysign(0, -1)
				}
			}
		}
		signZeros()
		var dead []bool
		retire := func(mask uint64) {
			if mask == 0 {
				return
			}
			if dead == nil {
				dead = make([]bool, numGroups(n, gs))
			}
			for g := range dead {
				if mask>>(g%64)&1 == 1 {
					dead[g] = true
				}
			}
		}
		scratch := func() *Layout {
			if dead == nil {
				return InterleavedLayout(degs, gs)
			}
			return InterleavedLayoutHealthy(degs, gs, dead)
		}
		retire(deadMask)
		cur := scratch()
		for step := 0; step < steps; step++ {
			if step == steps/2 {
				retire(waveMask)
			}
			changed := mutate(rng, degs, 1+rng.Intn(1+int(burst)))
			signZeros()
			for range rng.Intn(1 + len(changed)) {
				changed = append(changed, changed[rng.Intn(len(changed))])
			}
			prevOrder := slices.Clone(cur.Order) // ApplyDelta updates cur in place
			stats := cur.ApplyDelta(degs, changed, dead)
			if want := scratch(); !layoutsEqual(cur, want, degs) {
				t.Fatalf("step %d (changed %v, full=%v): delta layout diverged\n got order %v\nwant order %v",
					step, changed, stats.Full, cur.Order, want.Order)
			}
			if !isPermutation(cur.Order) {
				t.Fatalf("step %d: order not a permutation: %v", step, cur.Order)
			}
			if want := recountStats(prevOrder, cur); stats.StripesMoved != want.StripesMoved ||
				stats.GroupsTouched != want.GroupsTouched {
				t.Fatalf("step %d (full=%v): stats moved %d / groups %d, recount %d / %d",
					step, stats.Full, stats.StripesMoved, stats.GroupsTouched,
					want.StripesMoved, want.GroupsTouched)
			}
		}
	})
}

// recountStats derives StripesMoved and GroupsTouched from a layout's
// order before a delta and the layout after it: the slots whose occupant
// changed, and the distinct groups holding them.
func recountStats(prevOrder []int, next *Layout) DeltaStats {
	var s DeltaStats
	groups := map[int]bool{}
	for p, v := range next.Order {
		if p >= len(prevOrder) || prevOrder[p] != v {
			s.StripesMoved++
			groups[p/next.GroupSize] = true
		}
	}
	s.GroupsTouched = len(groups)
	return s
}
