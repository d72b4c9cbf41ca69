package simmemo

import (
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
		v := Do(c, "k", func() int { calls++; return 42 })
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

// TestDoOutcomeReportsHit pins the hit flag counter-replay callers
// depend on: false exactly when this call's fn produced the value.
func TestDoOutcomeReportsHit(t *testing.T) {
	c := NewCache("test_outcome", 8)
	if _, hit := DoOutcome(c, "k", func() int { return 1 }); hit {
		t.Fatal("first call must not be a hit")
	}
	if _, hit := DoOutcome(c, "k", func() int { return 2 }); !hit {
		t.Fatal("second call must be a hit")
	}
	if v := Do(c, "k", func() int { return 3 }); v != 1 {
		t.Fatalf("cached value = %d, want the first computation's 1", v)
	}
}

// TestDisabledBypassesEverything: with the layer off, every call
// computes inline and no counter moves — pre-memo behaviour exactly.
func TestDisabledBypassesEverything(t *testing.T) {
	c := NewCache("test_disabled", 8)
	SetEnabled(false)
	defer SetEnabled(true)
	var calls int
	for i := 0; i < 2; i++ {
		if v := Do(c, "k", func() int { calls++; return calls }); v != calls {
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
	Do(c, "k", func() int { calls++; return 0 })
	ResetAll()
	Do(c, "k", func() int { calls++; return 0 })
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (ResetAll must clear entries)", calls)
	}
}

// TestRegistryResetClearsCaches pins the obs coupling: a default-
// registry Reset (what the bench suite runs between repeats) must
// clear the memo caches too, or hit counts would depend on what ran
// before the reset.
func TestRegistryResetClearsCaches(t *testing.T) {
	c := NewCache("test_obsreset", 8)
	var calls int
	Do(c, "k", func() int { calls++; return 0 })
	obs.Default().Reset()
	Do(c, "k", func() int { calls++; return 0 })
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (registry Reset must clear caches)", calls)
	}
	if m := c.misses.Value(); m != 1 {
		t.Fatalf("misses after reset = %d, want 1 (counters zeroed with the cache)", m)
	}
}

// TestDoCoalescesConcurrentCallers: racing same-key callers share one
// computation, and hits+misses still sum to the call count.
func TestDoCoalescesConcurrentCallers(t *testing.T) {
	c := NewCache("test_coalesce", 8)
	const callers = 16
	var calls int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Do(c, "k", func() int {
				mu.Lock()
				calls++
				mu.Unlock()
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
}
