package singleflight

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitWaiters returns once n callers are blocked on k's in-flight
// computation, and fails the test if that takes more than 10 s.
func awaitWaiters[K comparable, V any](t *testing.T, c *Cache[K, V], k K, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		e, ok := c.entries[k]
		got := 0
		if ok && !e.complete {
			got = e.waiters
		}
		c.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers blocked on the in-flight computation", got, n)
		}
		runtime.Gosched()
	}
}

func TestDoCachesPerKey(t *testing.T) {
	c := New[string, int](0)
	var runs atomic.Int64
	mk := func(v int) func() int {
		return func() int { runs.Add(1); return v }
	}
	if v, hit := c.Do("a", mk(1)); v != 1 || hit {
		t.Fatalf("first Do(a) = %d, hit=%v; want 1, miss", v, hit)
	}
	if v, hit := c.Do("a", mk(99)); v != 1 || !hit {
		t.Fatalf("second Do(a) = %d, hit=%v; want cached 1, hit", v, hit)
	}
	if v, hit := c.Do("b", mk(2)); v != 2 || hit {
		t.Fatalf("Do(b) = %d, hit=%v; want 2, miss", v, hit)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("fn ran %d times, want 2", got)
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get(missing) reported a hit")
	}
}

// TestDifferentKeysRunConcurrently is the regression test for the
// predictor-cache serialization bug: a cache whose mutex is held
// across the computation (the pre-fix design) deadlocks here, because
// key "a"'s computation cannot finish until key "b"'s has started.
func TestDifferentKeysRunConcurrently(t *testing.T) {
	c := New[string, int](0)
	bStarted := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do("a", func() int {
			select {
			case <-bStarted:
			case <-time.After(10 * time.Second):
				t.Error("Do(b) never started while Do(a) was in flight: computations serialized")
			}
			return 1
		})
	}()
	go func() {
		c.Do("b", func() int {
			close(bStarted)
			return 2
		})
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Do(a) never returned")
	}
}

// TestSameKeyCoalesces pins single-flight: N concurrent callers of one
// key produce exactly one execution, and everyone sees its value.
func TestSameKeyCoalesces(t *testing.T) {
	c := New[string, int](0)
	var runs, hits atomic.Int64
	release := make(chan struct{})
	const callers = 32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit := c.Do("k", func() int {
				runs.Add(1)
				<-release
				return 7
			})
			if v != 7 {
				t.Errorf("Do(k) = %d, want 7", v)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	// Release the computation once every other caller waits on it.
	awaitWaiters(t, c, "k", callers-1)
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times for one key, want 1", runs.Load())
	}
	if hits.Load() != callers-1 {
		t.Fatalf("%d hits for %d callers, want %d", hits.Load(), callers, callers-1)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int, int](2)
	var evicted []int
	c.OnEvict = func(k, _ int) { evicted = append(evicted, k) }
	c.Do(1, func() int { return 1 })
	c.Do(2, func() int { return 2 })
	c.Do(1, func() int { return 1 }) // refresh 1 → LRU order is 2, 1
	c.Do(3, func() int { return 3 }) // evicts 2
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted %v, want [2]", evicted)
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("evicted key 2 still cached")
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", c.Len())
	}
	// An evicted key recomputes (a miss).
	var reran bool
	if _, hit := c.Do(2, func() int { reran = true; return 2 }); hit || !reran {
		t.Fatal("re-Do of evicted key did not recompute")
	}
}

// TestSizedEviction fills a size-bounded cache whose values are their
// own sizes: least recently used entries go until the total fits, the
// newest entry stays even when it alone exceeds the bound, and Reset
// zeroes the total.
func TestSizedEviction(t *testing.T) {
	c := NewSized[string, int64](0, 10, func(v int64) int64 { return v })
	var evicted []string
	c.OnEvict = func(k string, _ int64) { evicted = append(evicted, k) }
	put := func(k string, size int64) { c.Do(k, func() int64 { return size }) }
	put("a", 4)
	put("b", 4)
	put("a", 4) // refresh a → LRU order is b, a
	if got := c.Size(); got != 8 {
		t.Fatalf("Size() = %d, want 8", got)
	}
	put("c", 4) // 12 > 10: evicts b
	if got := c.Size(); got != 8 || !slices.Equal(evicted, []string{"b"}) {
		t.Fatalf("Size() = %d, evicted %v; want 8, [b]", got, evicted)
	}
	put("big", 25) // evicts a and c, keeps itself
	if got := c.Size(); got != 25 || c.Len() != 1 || !slices.Equal(evicted, []string{"b", "a", "c"}) {
		t.Fatalf("Size() = %d, Len() = %d, evicted %v; want 25, 1, [b a c]", got, c.Len(), evicted)
	}
	if _, ok := c.Get("big"); !ok {
		t.Fatal("the newest entry was evicted")
	}
	put("d", 1) // 26 > 10: evicts big
	if got := c.Size(); got != 1 {
		t.Fatalf("Size() = %d, want 1", got)
	}
	c.Reset()
	if got := c.Size(); got != 0 {
		t.Fatalf("Size() after Reset = %d, want 0", got)
	}
}

// TestPanicClearsSlot checks that a panicking computation does not
// wedge the key: waiters retry and one of them succeeds.
func TestPanicClearsSlot(t *testing.T) {
	c := New[string, int](0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.Do("k", func() int { panic("boom") })
	}()
	if v, hit := c.Do("k", func() int { return 5 }); v != 5 || hit {
		t.Fatalf("Do after panic = %d, hit=%v; want fresh 5", v, hit)
	}
}

// TestDeterministicMissCount pins the contract the Sim-clock counters
// rely on: with an unbounded cache, executions == distinct keys at any
// concurrency level.
func TestDeterministicMissCount(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		c := New[int, int](0)
		var runs atomic.Int64
		const keys, perKey = 5, 16
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := 0; i < keys*perKey; i++ {
			k := i % keys
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				c.Do(k, func() int { runs.Add(1); return k })
			}()
		}
		wg.Wait()
		if got := runs.Load(); got != keys {
			t.Fatalf("workers=%d: %d executions for %d distinct keys", workers, got, keys)
		}
	}
}

// TestDoOutcomeDispositions pins the three Outcome values: the first
// call computes, a later sequential call is cached, and concurrent
// callers piled behind an in-flight computation report coalesced.
func TestDoOutcomeDispositions(t *testing.T) {
	c := New[string, int](0)

	release := make(chan struct{})
	started := make(chan struct{})
	firstDone := make(chan Outcome, 1)
	go func() {
		_, out := c.DoOutcome("k", func() int {
			close(started)
			<-release
			return 7
		})
		firstDone <- out
	}()
	<-started

	const waiters = 8
	var wg sync.WaitGroup
	outcomes := make(chan Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out := c.DoOutcome("k", func() int { return -1 })
			if v != 7 {
				t.Errorf("coalesced DoOutcome = %d, want 7", v)
			}
			outcomes <- out
		}()
	}
	// Release the runner once every waiter is blocked behind it.
	awaitWaiters(t, c, "k", waiters)
	close(release)
	wg.Wait()
	close(outcomes)

	if out := <-firstDone; out != Computed {
		t.Fatalf("runner outcome = %v, want Computed", out)
	}
	// Every waiter blocked on the in-flight run before it completed.
	for out := range outcomes {
		if out != Coalesced {
			t.Fatalf("waiter outcome = %v, want Coalesced", out)
		}
	}

	if _, out := c.DoOutcome("k", func() int { return -1 }); out != Cached {
		t.Fatalf("sequential repeat outcome = %v, want Cached", out)
	}
}

// TestOutcomeStrings pins the header vocabulary the daemon surfaces.
func TestOutcomeStrings(t *testing.T) {
	cases := []struct {
		out Outcome
		s   string
		hit bool
	}{
		{Computed, "miss", false},
		{Cached, "hit", true},
		{Coalesced, "coalesced", true},
	}
	for _, c := range cases {
		if c.out.String() != c.s || c.out.Hit() != c.hit {
			t.Errorf("%v: String=%q Hit=%v, want %q/%v", c.out, c.out.String(), c.out.Hit(), c.s, c.hit)
		}
	}
}
