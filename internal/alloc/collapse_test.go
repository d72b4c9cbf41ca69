package alloc

import (
	"reflect"
	"testing"

	"gopim/internal/stage"
)

// policies enumerates every allocation policy under its display name.
func policies() map[string]func(Request) Result {
	return map[string]func(Request) Result{
		"greedy": Greedy,
		"equal":  EqualSplit,
		"ratio":  func(r Request) Result { return FixedRatio(r, 1, 2) },
		"space":  SpaceProportional,
		"optimal": func(r Request) Result {
			return Optimal(r, 8)
		},
	}
}

// TestPoolCollapseMidSequence is the churn robustness table: a
// retirement wave sweeps the free pool through →1 and →0 transitions
// across successive allocations of one run, and every policy must
// degrade deterministically at each step — monotonically fewer
// crossbars spent, Degraded flagged exactly when retirement bites,
// never a panic, never a replica count below the original mapping.
func TestPoolCollapseMidSequence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		budget  int
		wave    []int // RetiredCrossbars per allocation step
		effWant []int // expected effective budget per step
	}{
		{
			name:    "pool-to-zero",
			budget:  6,
			wave:    []int{0, 3, 5, 6, 9},
			effWant: []int{6, 3, 1, 0, 0},
		},
		{
			name:    "pool-to-one-and-back-to-zero",
			budget:  4,
			wave:    []int{1, 3, 4},
			effWant: []int{3, 1, 0},
		},
		{
			name:    "zero-nominal-budget",
			budget:  0,
			wave:    []int{0, 2},
			effWant: []int{0, 0},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for name, policy := range policies() {
				prevEff := -1
				prevUsed := -1
				for step, retired := range tc.wave {
					req := twoStage(tc.budget)
					req.RetiredCrossbars = retired
					if eff := req.effectiveBudget(); eff != tc.effWant[step] {
						t.Fatalf("%s step %d: effective budget %d, want %d", name, step, eff, tc.effWant[step])
					}
					res := policy(req)
					if res.Used > req.effectiveBudget() {
						t.Fatalf("%s step %d: spent %d from a pool of %d", name, step, res.Used, req.effectiveBudget())
					}
					for i, rep := range res.Replicas {
						if rep < 1 {
							t.Fatalf("%s step %d: stage %d replica count %d < 1", name, step, i, rep)
						}
					}
					wantDegraded := retired > 0 && tc.budget > 0
					if res.Degraded != wantDegraded {
						t.Fatalf("%s step %d: Degraded = %v, want %v (retired %d, budget %d)",
							name, step, res.Degraded, wantDegraded, retired, tc.budget)
					}
					// Same request again → identical result: the degradation
					// path must be deterministic, not best-effort.
					if again := policy(req); !reflect.DeepEqual(again, res) {
						t.Fatalf("%s step %d: repeated allocation diverged: %+v vs %+v", name, step, again, res)
					}
					// A shrinking pool never spends more than the previous,
					// larger pool did.
					if prevEff >= 0 && req.effectiveBudget() <= prevEff && res.Used > prevUsed {
						t.Fatalf("%s step %d: pool shrank %d→%d but spend grew %d→%d",
							name, step, prevEff, req.effectiveBudget(), prevUsed, res.Used)
					}
					prevEff, prevUsed = req.effectiveBudget(), res.Used
				}
			}
		})
	}
}

// TestPoolCollapseSingleSlot: an effective budget of exactly 1 must
// afford at most one single-crossbar replica — the boundary where
// greedy's heap still has work but almost nothing fits.
func TestPoolCollapseSingleSlot(t *testing.T) {
	req := Request{
		TimesNS:          []float64{5, 9, 2},
		Crossbars:        []int{1, 2, 1},
		Replicable:       []bool{true, true, true},
		Kinds:            []stage.Kind{stage.Combination, stage.Aggregation, stage.LossCalc},
		Budget:           8,
		RetiredCrossbars: 7,
		MicroBatches:     4,
	}
	res := Greedy(req)
	if res.Used > 1 {
		t.Fatalf("spent %d crossbars from a single-slot pool", res.Used)
	}
	if res.Replicas[1] != 1 {
		t.Fatalf("two-crossbar stage cannot fit in one slot, got %d replicas", res.Replicas[1])
	}
	if !res.Degraded {
		t.Fatal("single-slot pool must report Degraded")
	}
}
