package experiments

import (
	"errors"
	"sync"
	"testing"
)

// TestRunAllScheduleReordersStartsNotResults pins the memo-aware
// scheduling contract: runPriority may permute which harness STARTS
// first, but results (and error attribution) always come back in the
// caller's id order.
func TestRunAllScheduleReordersStartsNotResults(t *testing.T) {
	register("zz_sched_a", func(Options) (*Result, error) {
		return &Result{ID: "zz_sched_a", Header: []string{"x"}}, nil
	})
	register("zz_sched_b", func(Options) (*Result, error) {
		return &Result{ID: "zz_sched_b", Header: []string{"x"}}, nil
	})
	register("zz_sched_err", func(Options) (*Result, error) {
		return nil, errors.New("boom")
	})
	defer func() {
		delete(registry, "zz_sched_a")
		delete(registry, "zz_sched_b")
		delete(registry, "zz_sched_err")
		delete(runPriority, "zz_sched_b")
	}()
	runPriority["zz_sched_b"] = -100 // must start before everything else

	var mu sync.Mutex
	var starts []string
	res, err := RunAllWithHooks(
		[]string{"zz_sched_a", "zz_sched_err", "zz_sched_b"}, fastOpt,
		RunHooks{OnStart: func(id string) {
			mu.Lock()
			starts = append(starts, id)
			mu.Unlock()
		}})

	if len(starts) != 3 || starts[0] != "zz_sched_b" {
		t.Fatalf("start order = %v, want zz_sched_b first", starts)
	}
	if len(res) != 3 || res[0] == nil || res[2] == nil ||
		res[0].ID != "zz_sched_a" || res[2].ID != "zz_sched_b" {
		t.Fatalf("results must stay in caller order, got %v", res)
	}
	if res[1] != nil {
		t.Fatal("failed harness slot must be nil")
	}
	if err == nil || err.Error() != "experiments: zz_sched_err: boom" {
		t.Fatalf("error must name the failing id in caller order, got %v", err)
	}
}

// TestRunPriorityIDsExist guards the priority table against drift: a
// renamed experiment would silently lose its schedule slot.
func TestRunPriorityIDsExist(t *testing.T) {
	for id := range runPriority {
		if _, ok := registry[id]; !ok {
			t.Errorf("runPriority names unknown experiment %q", id)
		}
	}
}

// TestStartOrderCriticalPathFirst pins the full sweep's start order:
// fig9, the longest serial chain, starts first, and the memo-sharing
// chain tab5 → cora → fig16 keeps its order right behind it; every
// other id follows in caller order.
func TestStartOrderCriticalPathFirst(t *testing.T) {
	ids := IDs()
	order := startOrder(ids)
	got := make([]string, len(order))
	for k, i := range order {
		got[k] = ids[i]
	}
	want := []string{"fig9", "tab5", "cora", "fig16"}
	for k, id := range want {
		if got[k] != id {
			t.Fatalf("start order = %v, want it to begin %v", got, want)
		}
	}
	rest := got[len(want):]
	for k := 1; k < len(rest); k++ {
		if rest[k-1] >= rest[k] {
			t.Fatalf("unprioritised ids must keep caller (sorted) order, got %v", rest)
		}
	}
}
