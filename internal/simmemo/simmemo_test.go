package simmemo

import (
	"fmt"
	"sync"
	"testing"

	"gopim/internal/obs"
)

// TestDoComputesOncePerKey pins the core memo behaviour: one
// computation per distinct key, hits for every reuse, and the value
// shared verbatim.
func TestDoComputesOncePerKey(t *testing.T) {
	c := NewCache("test_once", 8)
	var calls int
	for i := 0; i < 3; i++ {
		v := Do(c, "k", nil, func(*obs.Tape) int { calls++; return 42 })
		if v != 42 {
			t.Fatalf("Do = %d, want 42", v)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if m, h := c.misses.Value(), c.hits.Value(); m != 1 || h != 2 {
		t.Fatalf("misses=%d hits=%d, want 1/2", m, h)
	}
}

// TestDoReplaysTapeOnEveryCall pins the replay contract: fn runs once
// per key, yet the counter it records moves on every call — miss, hit,
// keyless and with the layer off — and lands in the caller's tape when
// one is given.
func TestDoReplaysTapeOnEveryCall(t *testing.T) {
	c := NewCache("test_replay", 8)
	ctr := obs.NewRegistry().NewCounter("test.replayed", obs.Sim, "")
	var calls int
	fn := func(tp *obs.Tape) int {
		calls++
		tp.Add(ctr, 5)
		return 1
	}
	for i := 0; i < 3; i++ {
		Do(c, "k", nil, fn)
	}
	if calls != 1 || ctr.Value() != 15 {
		t.Fatalf("fn ran %d times, counter %d; want 1 run, 15 (5 per call)", calls, ctr.Value())
	}
	Do(c, "", nil, fn)
	SetEnabled(false)
	Do(c, "k", nil, fn)
	SetEnabled(true)
	if calls != 3 || ctr.Value() != 25 {
		t.Fatalf("keyless and memo-off: fn ran %d times, counter %d; want 3, 25", calls, ctr.Value())
	}
	var outer obs.Tape
	Do(c, "k", &outer, fn)
	if ctr.Value() != 25 {
		t.Fatalf("a call with a tape must record there, not in the registry (counter %d)", ctr.Value())
	}
	outer.Replay(nil)
	if ctr.Value() != 30 {
		t.Fatalf("replaying the outer tape: counter %d, want 30", ctr.Value())
	}
}

// TestNestedDoReplaysIntoOuterTape: a memoized computation that calls
// Do itself passes its tape down, so the inner domain's counters are
// stored with the outer value and replayed on outer hits, where the
// inner fn never runs.
func TestNestedDoReplaysIntoOuterTape(t *testing.T) {
	outer, inner := NewCache("test_nest_outer", 8), NewCache("test_nest_inner", 8)
	reg := obs.NewRegistry()
	outerCtr := reg.NewCounter("test.outer", obs.Sim, "")
	innerCtr := reg.NewCounter("test.inner", obs.Sim, "")
	var innerCalls int
	innerFn := func(tp *obs.Tape) int { innerCalls++; tp.Add(innerCtr, 10); return 2 }
	outerFn := func(tp *obs.Tape) int {
		tp.Inc(outerCtr)
		return Do(inner, "in", tp, innerFn) + 1
	}
	for i := 0; i < 2; i++ {
		if v := Do(outer, "out", nil, outerFn); v != 3 {
			t.Fatalf("outer Do = %d, want 3", v)
		}
	}
	Do(inner, "in", nil, innerFn)
	if innerCalls != 1 {
		t.Fatalf("inner fn ran %d times, want 1", innerCalls)
	}
	if outerCtr.Value() != 2 || innerCtr.Value() != 30 {
		t.Fatalf("outer=%d inner=%d, want 2 and 30 (the outer hit replays the inner count)",
			outerCtr.Value(), innerCtr.Value())
	}
}

// TestDisabledBypassesEverything: with the layer off, every call
// computes inline and no hit/miss counter moves — pre-memo behaviour
// exactly.
func TestDisabledBypassesEverything(t *testing.T) {
	c := NewCache("test_disabled", 8)
	SetEnabled(false)
	defer SetEnabled(true)
	var calls int
	for i := 0; i < 2; i++ {
		if v := Do(c, "k", nil, func(*obs.Tape) int { calls++; return calls }); v != calls {
			t.Fatalf("disabled Do must return this call's fn result, got %d", v)
		}
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (no caching while disabled)", calls)
	}
	if m, h := c.misses.Value(), c.hits.Value(); m != 0 || h != 0 {
		t.Fatalf("disabled calls must not touch counters, got misses=%d hits=%d", m, h)
	}
}

// TestResetAllClearsEntries: after ResetAll the next Do recomputes.
func TestResetAllClearsEntries(t *testing.T) {
	c := NewCache("test_resetall", 8)
	var calls int
	Do(c, "k", nil, func(*obs.Tape) int { calls++; return 0 })
	ResetAll()
	Do(c, "k", nil, func(*obs.Tape) int { calls++; return 0 })
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (ResetAll must clear entries)", calls)
	}
}

// TestSizedCacheBoundsValues fills a sized domain with more values
// than its bound holds: the summed size never exceeds the bound, and an
// evicted key computes again as a miss.
func TestSizedCacheBoundsValues(t *testing.T) {
	c := NewSizedCache("test_sized", 0, 3000, func(v []float64) int64 { return 8 * int64(len(v)) })
	for i := range 10 {
		Do(c, fmt.Sprint(i), nil, func(*obs.Tape) []float64 { return make([]float64, 100) })
		if got := c.Size(); got > 3000 {
			t.Fatalf("after %d values Size() = %d, want ≤ 3000", i+1, got)
		}
	}
	if got := c.Size(); got != 2400 {
		t.Fatalf("Size() = %d, want 2400 (three 800-byte values)", got)
	}
	misses := c.Misses()
	Do(c, "0", nil, func(*obs.Tape) []float64 { return make([]float64, 100) })
	if c.Misses() != misses+1 {
		t.Fatal("an evicted key did not compute again")
	}
}

// TestRegistryResetClearsCaches pins the obs coupling: a default-
// registry Reset (what the bench suite runs between repeats) must
// clear the memo caches too, or hit counts would depend on what ran
// before the reset.
func TestRegistryResetClearsCaches(t *testing.T) {
	c := NewCache("test_obsreset", 8)
	var calls int
	Do(c, "k", nil, func(*obs.Tape) int { calls++; return 0 })
	obs.Default().Reset()
	Do(c, "k", nil, func(*obs.Tape) int { calls++; return 0 })
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (registry Reset must clear caches)", calls)
	}
	if m := c.misses.Value(); m != 1 {
		t.Fatalf("misses after reset = %d, want 1 (counters zeroed with the cache)", m)
	}
}

// TestDoCoalescesConcurrentCallers: racing same-key callers share one
// computation, hits+misses still sum to the call count, and every
// caller replays the one stored tape.
func TestDoCoalescesConcurrentCallers(t *testing.T) {
	c := NewCache("test_coalesce", 8)
	ctr := obs.NewRegistry().NewCounter("test.coalesced", obs.Sim, "")
	const callers = 16
	var calls int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Do(c, "k", nil, func(tp *obs.Tape) int {
				mu.Lock()
				calls++
				mu.Unlock()
				tp.Add(ctr, 3)
				return 7
			})
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if got := c.misses.Value() + c.hits.Value(); got != callers {
		t.Fatalf("hits+misses = %d, want %d", got, callers)
	}
	if c.misses.Value() != 1 {
		t.Fatalf("misses = %d, want 1 (single computation per key)", c.misses.Value())
	}
	if ctr.Value() != 3*callers {
		t.Fatalf("counter = %d, want %d (one replay per caller)", ctr.Value(), 3*callers)
	}
}
