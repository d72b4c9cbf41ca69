package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric is one named instrument in a Registry.
type Metric interface {
	Name() string
	Clock() Clock
	Kind() string
	Help() string
	// Fields returns the metric's current values as ordered key/value
	// pairs; values are rendered with deterministic formatting.
	Fields() []Field
	// Reset zeroes the metric's accumulated values.
	Reset()
}

// Field is one rendered value of a metric snapshot.
type Field struct {
	Key   string
	Value string
}

// formatFloat renders floats with the shortest round-trip
// representation, so equal values always render to equal bytes.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ---------------------------------------------------------------- counter

// Counter is a monotonically increasing integer. Increments are single
// uncontended atomic adds — safe on hot paths and, being commutative,
// deterministic under any scheduling.
type Counter struct {
	name  string
	clock Clock
	help  string
	v     atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n ≥ 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) Name() string { return c.name }
func (c *Counter) Clock() Clock { return c.clock }
func (c *Counter) Kind() string { return "counter" }
func (c *Counter) Help() string { return c.help }
func (c *Counter) Reset()       { c.v.Store(0) }
func (c *Counter) Fields() []Field {
	return []Field{{"count", strconv.FormatInt(c.v.Load(), 10)}}
}

// ------------------------------------------------------------------ gauge

// Gauge is a last-write-wins float64. Because "last write" depends on
// scheduling, gauges are Wall-clock only; use a Distribution for
// deterministic value tracking.
type Gauge struct {
	name string
	help string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) Name() string { return g.name }
func (g *Gauge) Clock() Clock { return Wall }
func (g *Gauge) Kind() string { return "gauge" }
func (g *Gauge) Help() string { return g.help }
func (g *Gauge) Reset()       { g.bits.Store(0) }
func (g *Gauge) Fields() []Field {
	return []Field{{"value", formatFloat(g.Value())}}
}

// ----------------------------------------------------------- distribution

// Distribution tracks count, min and max of observed float64 values —
// the order-independent reductions, so a Sim-clock distribution
// snapshot is deterministic under concurrent observation. A running
// floating-point sum is kept too, but because FP addition is not
// associative it is rendered only for Wall-clock distributions.
type Distribution struct {
	name    string
	clock   Clock
	help    string
	count   atomic.Int64
	minBits atomic.Uint64 // float64 bits; +Inf when empty
	maxBits atomic.Uint64 // float64 bits; -Inf when empty
	sumBits atomic.Uint64 // float64 bits (Wall rendering only)
}

func (d *Distribution) init() {
	d.minBits.Store(math.Float64bits(math.Inf(1)))
	d.maxBits.Store(math.Float64bits(math.Inf(-1)))
	d.sumBits.Store(0)
}

// Observe records one value.
func (d *Distribution) Observe(v float64) {
	d.count.Add(1)
	for {
		old := d.minBits.Load()
		if math.Float64frombits(old) <= v || d.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := d.maxBits.Load()
		if math.Float64frombits(old) >= v || d.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := d.sumBits.Load()
		if d.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (d *Distribution) Count() int64 { return d.count.Load() }

// Min returns the smallest observed value (+Inf when empty).
func (d *Distribution) Min() float64 { return math.Float64frombits(d.minBits.Load()) }

// Max returns the largest observed value (-Inf when empty).
func (d *Distribution) Max() float64 { return math.Float64frombits(d.maxBits.Load()) }

// Sum returns the (order-sensitive) running sum.
func (d *Distribution) Sum() float64 { return math.Float64frombits(d.sumBits.Load()) }

func (d *Distribution) Name() string { return d.name }
func (d *Distribution) Clock() Clock { return d.clock }
func (d *Distribution) Kind() string { return "distribution" }
func (d *Distribution) Help() string { return d.help }
func (d *Distribution) Reset()       { d.count.Store(0); d.init() }
func (d *Distribution) Fields() []Field {
	n := d.count.Load()
	fields := []Field{{"count", strconv.FormatInt(n, 10)}}
	if n > 0 {
		fields = append(fields,
			Field{"min", formatFloat(d.Min())},
			Field{"max", formatFloat(d.Max())})
		if d.clock == Wall {
			fields = append(fields, Field{"sum", formatFloat(d.Sum())})
		}
	}
	return fields
}

// -------------------------------------------------------------- histogram

// histogramBuckets is the bucket count: bucket k holds values v with
// bit length k, i.e. v in [2^(k-1), 2^k), with bucket 0 for v ≤ 0.
const histogramBuckets = 64

// Histogram counts non-negative integer observations into power-of-two
// buckets. All state is integer counts, so histograms are deterministic
// under any scheduling and admitted on the Sim clock.
type Histogram struct {
	name    string
	clock   Clock
	help    string
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histogramBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to bucket 0).
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(v)
		h.buckets[bits.Len64(uint64(v))].Add(1)
		return
	}
	h.buckets[0].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the integer sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (q in [0, 1]) from the power-of-two
// buckets: the bucket holding the target rank is found by cumulative
// count and the value interpolated linearly inside its [2^(k-1), 2^k)
// span. Resolution is therefore the bucket width — good enough to tell
// a 10µs p99 from a 10ms one, which is what BENCH files record — and
// the estimate is a pure function of the (deterministic) bucket
// counts, so Sim-clock quantiles diff exactly across runs.
//
// Edge cases are all defined, never NaN: an empty histogram reports 0
// for every q; a single-observation histogram reports that observation
// exactly (the integer sum IS the value, so no bucket interpolation is
// needed); q outside [0, 1] — including NaN — clamps to the nearest
// endpoint (NaN clamps to 0).
func (h *Histogram) Quantile(q float64) float64 {
	total := float64(h.count.Load())
	if total == 0 {
		return 0
	}
	if total == 1 {
		// One observation: its value is the sum (0 for v ≤ 0, which
		// lands in bucket 0 and adds nothing to the sum).
		return float64(h.sum.Load())
	}
	if !(q > 0) { // catches q < 0 and NaN
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * (total - 1)
	var cum float64
	for i := 0; i < histogramBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if rank < cum+n {
			if i == 0 {
				return 0 // bucket 0 holds v ≤ 0
			}
			lo := math.Ldexp(1, i-1)
			hi := math.Ldexp(1, i)
			frac := (rank - cum) / n
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	// Unreachable while counts and buckets agree: rank < total and the
	// bucket counts sum to total.
	return math.Ldexp(1, histogramBuckets-1)
}

func (h *Histogram) Name() string { return h.name }
func (h *Histogram) Clock() Clock { return h.clock }
func (h *Histogram) Kind() string { return "histogram" }
func (h *Histogram) Help() string { return h.help }
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}
func (h *Histogram) Fields() []Field {
	fields := []Field{
		{"count", strconv.FormatInt(h.count.Load(), 10)},
		{"sum", strconv.FormatInt(h.sum.Load(), 10)},
	}
	if h.count.Load() > 0 {
		// Tail-latency estimates, so BENCH files record p95/p99 and not
		// just the extremes.
		fields = append(fields,
			Field{"p50", formatFloat(h.Quantile(0.50))},
			Field{"p95", formatFloat(h.Quantile(0.95))},
			Field{"p99", formatFloat(h.Quantile(0.99))})
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			// Bucket label is the exclusive upper bound 2^i.
			fields = append(fields, Field{"lt_2e" + strconv.Itoa(i), strconv.FormatInt(n, 10)})
		}
	}
	return fields
}

// ------------------------------------------------------------------ timer

// Timer is a Wall-clock histogram of durations in nanoseconds.
type Timer struct {
	Histogram
}

// ObserveSince records the time elapsed since start; a zero start (as
// returned by NowIfEnabled when recording is off) is ignored.
func (t *Timer) ObserveSince(start time.Time) {
	if start.IsZero() {
		return
	}
	t.Observe(int64(time.Since(start)))
}

// ObserveDuration records one duration.
func (t *Timer) ObserveDuration(d time.Duration) { t.Observe(int64(d)) }

func (t *Timer) Kind() string { return "timer" }

// --------------------------------------------------------------- registry

// Registry holds named metrics. Registration is get-or-create: asking
// twice for the same name and kind returns the same instrument, which
// is what dynamically labelled series need; asking with a different
// kind or clock panics (a programming error, like a duplicate flag).
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]Metric
	// resetHooks run after Reset zeroes the metrics. Subsystems whose
	// Sim counters depend on process-global cache state (the simmemo
	// layer) register one so a registry reset restores their cold-start
	// state too — otherwise the first pass after a reset would count
	// cache hits the counters can no longer explain.
	hookMu     sync.Mutex
	resetHooks []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]Metric{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every package-level
// constructor registers into.
func Default() *Registry { return defaultRegistry }

// lookup returns the existing metric under name after checking kind
// and clock agreement, or nil if the name is free.
func (r *Registry) lookup(name, kind string, clock Clock) Metric {
	m, ok := r.metrics[name]
	if !ok {
		return nil
	}
	if m.Kind() != kind || m.Clock() != clock {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s/%v (was %s/%v)",
			name, kind, clock, m.Kind(), m.Clock()))
	}
	return m
}

func register[M Metric](r *Registry, name, kind string, clock Clock, make func() M) M {
	r.mu.RLock()
	m := r.lookup(name, kind, clock)
	r.mu.RUnlock()
	if m != nil {
		return m.(M)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, kind, clock); m != nil {
		return m.(M)
	}
	nm := make()
	r.metrics[name] = nm
	return nm
}

// NewCounter returns the counter registered under name, creating it if
// needed.
func (r *Registry) NewCounter(name string, clock Clock, help string) *Counter {
	return register(r, name, "counter", clock, func() *Counter {
		return &Counter{name: name, clock: clock, help: help}
	})
}

// NewGauge returns the (always Wall-clock) gauge registered under name.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return register(r, name, "gauge", Wall, func() *Gauge {
		return &Gauge{name: name, help: help}
	})
}

// NewDistribution returns the distribution registered under name.
func (r *Registry) NewDistribution(name string, clock Clock, help string) *Distribution {
	return register(r, name, "distribution", clock, func() *Distribution {
		d := &Distribution{name: name, clock: clock, help: help}
		d.init()
		return d
	})
}

// NewHistogram returns the histogram registered under name.
func (r *Registry) NewHistogram(name string, clock Clock, help string) *Histogram {
	return register(r, name, "histogram", clock, func() *Histogram {
		return &Histogram{name: name, clock: clock, help: help}
	})
}

// NewTimer returns the (always Wall-clock) timer registered under name.
func (r *Registry) NewTimer(name, help string) *Timer {
	return register(r, name, "timer", Wall, func() *Timer {
		return &Timer{Histogram{name: name, clock: Wall, help: help}}
	})
}

// Package-level constructors against the default registry.

// NewCounter registers a counter in the default registry.
func NewCounter(name string, clock Clock, help string) *Counter {
	return defaultRegistry.NewCounter(name, clock, help)
}

// NewGauge registers a Wall-clock gauge in the default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.NewGauge(name, help) }

// NewDistribution registers a distribution in the default registry.
func NewDistribution(name string, clock Clock, help string) *Distribution {
	return defaultRegistry.NewDistribution(name, clock, help)
}

// NewHistogram registers a histogram in the default registry.
func NewHistogram(name string, clock Clock, help string) *Histogram {
	return defaultRegistry.NewHistogram(name, clock, help)
}

// NewTimer registers a Wall-clock timer in the default registry.
func NewTimer(name, help string) *Timer { return defaultRegistry.NewTimer(name, help) }

// Reset zeroes every metric's accumulated values and then runs the
// registered reset hooks. Registration stays; only values reset. Tests
// and the bench harness use this between determinism runs.
func (r *Registry) Reset() {
	r.mu.RLock()
	for _, m := range r.metrics {
		m.Reset()
	}
	r.mu.RUnlock()
	r.hookMu.Lock()
	hooks := append([]func(){}, r.resetHooks...)
	r.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// OnReset registers fn to run after every Reset of this registry.
func (r *Registry) OnReset(fn func()) {
	r.hookMu.Lock()
	r.resetHooks = append(r.resetHooks, fn)
	r.hookMu.Unlock()
}

// OnReset registers fn against the default registry.
func OnReset(fn func()) { defaultRegistry.OnReset(fn) }

// MetricSnapshot is one metric's rendered state.
type MetricSnapshot struct {
	Name   string
	Clock  Clock
	Kind   string
	Fields []Field
}

// Snapshot returns the current state of every metric on the given
// clocks (no clocks = all), sorted by name. The rendering of a Sim
// snapshot is deterministic: sorted names, deterministic field order,
// shortest-round-trip value formatting.
func (r *Registry) Snapshot(clocks ...Clock) []MetricSnapshot {
	keep := func(c Clock) bool {
		if len(clocks) == 0 {
			return true
		}
		for _, k := range clocks {
			if k == c {
				return true
			}
		}
		return false
	}
	r.mu.RLock()
	out := make([]MetricSnapshot, 0, len(r.metrics))
	for _, m := range r.metrics {
		if !keep(m.Clock()) {
			continue
		}
		out = append(out, MetricSnapshot{
			Name: m.Name(), Clock: m.Clock(), Kind: m.Kind(), Fields: m.Fields(),
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText renders a snapshot as aligned "name kind field=value …"
// lines, one metric per line.
func (r *Registry) WriteText(w io.Writer, clocks ...Clock) error {
	var b strings.Builder
	for _, s := range r.Snapshot(clocks...) {
		fmt.Fprintf(&b, "%s %s", s.Name, s.Kind)
		for _, f := range s.Fields {
			fmt.Fprintf(&b, " %s=%s", f.Key, f.Value)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
