// Package simmemo is the input-keyed memo layer for the analytic
// simulator and its sweep harnesses. Sweep drivers (the experiments
// grids, the θ tuner, serve what-if requests) re-evaluate the same
// stage-input tuples over and over — the same synthesized instance,
// the same GCN training configuration, the same event-level schedule.
// simmemo lets each subsystem register a named cache keyed by the
// exact input fingerprint and reuse the previous result, so a sweep
// re-computes only the cells whose inputs actually changed.
//
// Determinism contract (the part that lets the hit/miss counters live
// on the Sim clock): each cache is a singleflight LRU, so for a fixed
// set of Do calls that fits the cache without mid-flight eviction, the
// number of computations equals the number of distinct keys regardless
// of scheduling or worker count. Misses count Computed outcomes; hits
// count Cached + Coalesced — both totals are pure functions of (call
// multiset, key set). Cache capacities are therefore sized well above
// any single run's working set; an eviction mid-run would make hit
// counts scheduling-dependent (the same caveat the serve response
// cache documents).
//
// The second half of the contract is replay: a memoized computation
// records its Sim counter increments on the obs.Tape that Do hands it,
// never into the registry directly. Do stores the tape beside the value
// and replays it on every call — miss, hit, and with the layer off — so
// the workload-semantics Sim counters (gcn.*, predictor.*, accel.*)
// are byte-identical with the memo on or off, at any worker count. A
// memoized computation that calls Do itself passes its own tape down,
// so a nested domain's counters ride along in the outer one's replay.
// Metrics that are pure functions of the returned value (pipeline.*,
// the accel.* distributions) are recorded by the caller after Do
// returns. The exceptions are simmemo.*'s own hit/miss counters and
// the parallel.* pool-attribution counters: those meter executed work,
// which is exactly what a memo hit elides.
//
// Values handed back on a hit are shared, not copied: cached results
// must be treated as immutable by every caller.
//
// The layer is always on in the CLI, the daemon and perfbench; no flag
// or environment variable turns it off. SetEnabled(false) exists for
// tests, which run a sweep both ways and compare (the root package's
// TestMemoOffReproducesMemoOn).
package simmemo

import (
	"sync"
	"sync/atomic"

	"gopim/internal/obs"
	"gopim/internal/singleflight"
)

// disabled gates every cache in the package. Default on: the memo layer
// never changes output bytes, only wall time. Stored inverted so the
// zero value means "on" without an init hook.
var disabled atomic.Bool

// SetEnabled turns the memo layer on or off globally. It is a test
// hook: with the layer off every Do call computes inline and counts no
// hit or miss, which is the reference the memo-transparency tests
// compare the memoized run against.
func SetEnabled(on bool) { disabled.Store(!on) }

// Cache is one named memo domain: a singleflight LRU plus its Sim-clock
// hit/miss counters. Construct with NewCache at package init so counter
// registration order is deterministic.
type Cache struct {
	name         string
	sf           *singleflight.Cache[string, any]
	hits, misses *obs.Counter
}

// registry tracks every cache so bench repeats can clear them all
// (ResetAll) without each consumer exporting its own reset hook.
var (
	regMu    sync.Mutex
	registry []*Cache
)

// NewCache registers a memo domain named name holding at most max
// completed entries (0 = unbounded). max must exceed the largest
// per-run working set or hit counts lose their worker-independence —
// see the package contract.
func NewCache(name string, max int) *Cache {
	return register(name, singleflight.New[string, any](max))
}

// NewSizedCache is NewCache for a domain whose values are large: it
// also holds at most maxSize of them as measured by size, plus the
// newest value (see singleflight.NewSized). Like max, maxSize must
// exceed the largest per-run working set.
func NewSizedCache[T any](name string, max int, maxSize int64, size func(T) int64) *Cache {
	return register(name, singleflight.NewSized[string](max, maxSize, func(v any) int64 {
		return size(v.(*entry[T]).v)
	}))
}

func register(name string, sf *singleflight.Cache[string, any]) *Cache {
	c := &Cache{
		name: name,
		sf:   sf,
		hits: obs.NewCounter("simmemo."+name+"_hits", obs.Sim,
			"memoized "+name+" reuses (cached + coalesced); worker-count-independent"),
		misses: obs.NewCounter("simmemo."+name+"_misses", obs.Sim,
			"memoized "+name+" computations (== distinct keys absent eviction)"),
	}
	regMu.Lock()
	registry = append(registry, c)
	regMu.Unlock()
	return c
}

// Hits returns the cache's accumulated reuse count (tests and
// attribution tooling; the counters themselves feed snapshots).
func (c *Cache) Hits() int64 { return c.hits.Value() }

// Misses returns the cache's accumulated computation count.
func (c *Cache) Misses() int64 { return c.misses.Value() }

// Size returns the summed size of the cached values (0 for a cache
// built with NewCache).
func (c *Cache) Size() int64 { return c.sf.Size() }

// Do returns the value for key, computing it with fn on first use and
// coalescing concurrent same-key calls. fn records its Sim counter
// increments on the tape it is given; Do stores that tape beside the
// value and replays it into t (the registry when t is nil) on every
// call, so the counters move as if fn had run each time. An empty key,
// or the layer being off, computes uncached through the same path and
// touches no hit/miss counter. The returned value is shared across all
// callers of the key: treat it as immutable.
func Do[T any](c *Cache, key string, t *obs.Tape, fn func(*obs.Tape) T) T {
	compute := func() any {
		e := &entry[T]{}
		e.v = fn(&e.tape)
		return e
	}
	var e *entry[T]
	if key == "" || disabled.Load() {
		e = compute().(*entry[T])
	} else {
		v, hit := c.sf.Do(key, compute)
		if hit {
			c.hits.Inc()
		} else {
			c.misses.Inc()
		}
		e = v.(*entry[T])
	}
	e.tape.Replay(t)
	return e.v
}

// entry is what a cache stores: the value and the tape of Sim counter
// increments its computation made.
type entry[T any] struct {
	v    T
	tape obs.Tape
}

// The memo caches clear whenever the default registry resets: hit/miss
// counters are only a pure function of the submitted work when the
// caches start cold with them, so a harness that resets one must reset
// both (the bench suite between repeats, the determinism tests between
// worker counts).
func init() {
	obs.OnReset(ResetAll)
}

// ResetAll clears every registered cache's completed entries. Runs
// automatically on every default-registry Reset (see init); callers
// only need it directly when clearing caches without touching metrics.
func ResetAll() {
	regMu.Lock()
	caches := append([]*Cache(nil), registry...)
	regMu.Unlock()
	for _, c := range caches {
		c.sf.Reset()
	}
}
