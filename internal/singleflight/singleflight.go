// Package singleflight provides a generic keyed result cache with
// per-key miss coalescing and optional LRU eviction, by entry count
// and, for caches built with NewSized, by the summed size of the values.
//
// Concurrent Do calls for the same key share one computation: exactly
// one caller runs the function while the rest wait for its result.
// Calls for *different* keys never block each other — the cache's
// mutex guards only the map bookkeeping, never a computation — which
// is the property the old experiments predictor cache (one mutex held
// across training) lacked.
//
// Determinism contract: for any fixed set of Do calls that the cache
// can hold without evicting mid-flight, the number of function
// executions is exactly the number of distinct keys, independent of
// scheduling or concurrency. Callers that count hits as
// (calls − executions) therefore get scheduling-independent totals,
// which is what lets the simmemo and serve-cache counters live on the
// deterministic Sim clock.
package singleflight

import (
	"container/list"
	"sync"
)

// entry is one key's slot: in-flight (done open, complete false) or
// completed (val set, elem on the LRU list). waiters counts the callers
// that have blocked on its in-flight computation, so tests can release
// a computation only once every caller is queued behind it.
type entry[V any] struct {
	done     chan struct{}
	val      V
	complete bool
	elem     *list.Element
	waiters  int
	size     int64 // size(val) once complete; 0 without a size function
}

// Cache is a keyed single-flight result cache. The zero value is not
// usable; construct with New.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int // max completed entries; 0 = unbounded
	entries map[K]*entry[V]
	// order tracks completed entries, most recently used at the front.
	// In-flight entries are pinned (not on the list, never evicted).
	order *list.List
	// maxSize bounds total, the summed size of the completed entries
	// (0 = unbounded); size measures one value.
	maxSize int64
	size    func(V) int64
	total   int64

	// OnEvict, when non-nil, observes each LRU eviction. It runs with
	// the cache's lock held: it must be fast and must not call back
	// into the cache.
	OnEvict func(K, V)
}

// New returns a cache holding at most max completed entries
// (0 = unbounded). Eviction is strict LRU over completed entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{
		max:     max,
		entries: map[K]*entry[V]{},
		order:   list.New(),
	}
}

// NewSized returns a cache that also bounds the summed size of its
// completed entries: after each insertion it evicts least recently used
// entries until the total is at most maxSize, but never the entry just
// inserted, so the cache holds at most maxSize plus one value. size
// must be a pure function of the value.
func NewSized[K comparable, V any](max int, maxSize int64, size func(V) int64) *Cache[K, V] {
	c := New[K, V](max)
	c.maxSize, c.size = maxSize, size
	return c
}

// Get returns the completed cached value for k, if any, refreshing its
// LRU position. It never blocks on an in-flight computation — callers
// that want coalescing use Do.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok && e.complete {
		c.order.MoveToFront(e.elem)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Outcome classifies how a Do call obtained its value — the cache
// disposition telemetry surfaces per request.
type Outcome uint8

const (
	// Computed: this call ran fn itself (a miss).
	Computed Outcome = iota
	// Cached: the value was already complete in the cache.
	Cached
	// Coalesced: this call waited on another caller's in-flight fn.
	Coalesced
)

// Hit reports whether the call reused a computation rather than
// running fn itself.
func (o Outcome) Hit() bool { return o != Computed }

// String renders the outcome in cache-header vocabulary.
func (o Outcome) String() string {
	switch o {
	case Cached:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Do returns the value for k, computing it with fn on first use.
// Concurrent calls for the same key share one fn execution; calls for
// different keys proceed independently. hit reports whether this call
// reused a computation (cached or coalesced) rather than running fn
// itself. DoOutcome additionally distinguishes the two reuse flavours.
//
// If fn panics, the panic propagates to the caller that ran it, the
// key's slot is cleared, and any coalesced waiters retry (one of them
// becomes the next runner).
func (c *Cache[K, V]) Do(k K, fn func() V) (v V, hit bool) {
	v, out := c.DoOutcome(k, fn)
	return v, out.Hit()
}

// DoOutcome is Do with the cache disposition surfaced: Computed (this
// call ran fn), Cached (served from a completed entry), or Coalesced
// (waited on another caller's in-flight computation). Hit/miss
// accounting derived from Outcome.Hit() keeps the determinism contract
// Do established: executions == distinct keys.
func (c *Cache[K, V]) DoOutcome(k K, fn func() V) (v V, outcome Outcome) {
	waited := false
	for {
		c.mu.Lock()
		if e, ok := c.entries[k]; ok {
			if e.complete {
				c.order.MoveToFront(e.elem)
				v = e.val
				c.mu.Unlock()
				if waited {
					return v, Coalesced
				}
				return v, Cached
			}
			done := e.done
			e.waiters++
			c.mu.Unlock()
			waited = true
			<-done
			// The runner finished (or panicked, clearing the slot) — or
			// the entry completed and was already evicted. Re-check;
			// in the common case the next pass returns the cached value.
			c.mu.Lock()
			if e2, ok := c.entries[k]; ok && e2.complete {
				c.order.MoveToFront(e2.elem)
				v = e2.val
				c.mu.Unlock()
				return v, Coalesced
			}
			c.mu.Unlock()
			continue
		}
		e := &entry[V]{done: make(chan struct{})}
		c.entries[k] = e
		c.mu.Unlock()
		return c.run(k, e, fn), Computed
	}
}

// run executes fn for the in-flight entry e, completing or clearing it.
func (c *Cache[K, V]) run(k K, e *entry[V], fn func() V) V {
	defer func() {
		c.mu.Lock()
		if !e.complete {
			// fn panicked: clear the slot so waiters can retry.
			delete(c.entries, k)
		}
		c.mu.Unlock()
		close(e.done)
	}()
	v := fn()
	if c.size != nil {
		e.size = c.size(v)
	}
	c.mu.Lock()
	e.val = v
	e.complete = true
	e.elem = c.order.PushFront(k)
	c.total += e.size
	for (c.max > 0 && c.order.Len() > c.max) ||
		(c.maxSize > 0 && c.total > c.maxSize && c.order.Len() > 1) {
		back := c.order.Back()
		evk := back.Value.(K)
		c.order.Remove(back)
		if ev, ok := c.entries[evk]; ok {
			if c.OnEvict != nil {
				c.OnEvict(evk, ev.val)
			}
			c.total -= ev.size
			delete(c.entries, evk)
		}
	}
	c.mu.Unlock()
	return v
}

// Len returns the number of completed entries currently cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Size returns the summed size of the completed entries (0 for a cache
// built with New).
func (c *Cache[K, V]) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Reset drops every completed entry, returning the cache to its
// initial state. In-flight computations are left pinned: their runners
// will complete and re-insert as if freshly computed, so a Reset racing
// a Do never loses a result or deadlocks a waiter. Benchmark harnesses
// call this between repeats so hit/miss counts derived from Do outcomes
// cover exactly one pass.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if e.complete {
			delete(c.entries, k)
		}
	}
	c.order.Init()
	c.total = 0
}
