package obs

// Prometheus/OpenMetrics text exposition for the registry. The native
// text snapshot (WriteText) exists for exact cross-run diffing of the
// Sim clock; this renderer exists for real scrapers, so it follows
// Prometheus conventions instead: families are prefixed gopim_, dots
// become underscores, the {k=v} label suffix a LabelSuffix-named series
// carries is re-rendered as proper Prometheus labels, counters gain the
// _total suffix, and histograms expand into cumulative
// _bucket/_sum/_count series over the power-of-two bounds the
// obs.Histogram already maintains.

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// PromPrefix is the namespace every exposed family carries.
const PromPrefix = "gopim_"

// Metrics returns the registered metrics sorted by name.
func (r *Registry) Metrics() []Metric {
	r.mu.RLock()
	out := make([]Metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// BucketCounts returns the histogram's current per-bucket counts;
// bucket k holds values in [2^(k-1), 2^k), bucket 0 holds v ≤ 0.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, histogramBuckets)
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// promSanitize maps a metric-name fragment onto the Prometheus name
// alphabet [a-zA-Z0-9_:], replacing everything else with '_'.
func promSanitize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscapeLabel escapes a label value per the exposition format.
func promEscapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promEscapeHelp escapes HELP text per the exposition format.
func promEscapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promSplit decomposes a registry metric name into its Prometheus
// family name and rendered label pairs: "accel.makespan_ns{dataset=ddi,
// model=GoPIM}" → "gopim_accel_makespan_ns", `dataset="ddi",model="GoPIM"`.
func promSplit(name string) (family, labels string) {
	base := name
	var suffix string
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, suffix = name[:i], name[i:]
	}
	family = PromPrefix + promSanitize(base)
	if suffix == "" {
		return family, ""
	}
	suffix = strings.TrimPrefix(suffix, "{")
	suffix = strings.TrimSuffix(suffix, "}")
	var parts []string
	for _, kv := range strings.Split(suffix, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			// Not LabelSuffix-shaped; keep the information as one label.
			k, v = "label", kv
		}
		parts = append(parts, promSanitize(k)+`="`+promEscapeLabel(v)+`"`)
	}
	return family, strings.Join(parts, ",")
}

// promSample renders one sample line: name{labels} value.
func promSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// promJoinLabels merges two rendered label fragments.
func promJoinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

// promFamily is one exposition family: a TYPE/HELP header plus the
// sample lines of every series sharing the family name.
type promFamily struct {
	name  string
	typ   string
	help  string
	lines strings.Builder
}

// WritePrometheus renders the registry in Prometheus text exposition
// format 0.0.4 (also valid OpenMetrics when the caller appends the
// "# EOF" terminator). Both clocks are exposed — a scraper wants the
// full picture; exact Sim-only diffing stays on WriteText.
//
// Kind mapping: counters → counter families suffixed _total; gauges →
// gauges; histograms and timers → histogram families with cumulative
// le="2^k" buckets (the upper bound of the [2^(k-1), 2^k) power-of-two
// bucket; le="0" holds v ≤ 0); distributions → companion gauge
// families _count/_min/_max (+_sum, which is order-sensitive and so
// only meaningful on the Wall clock, where all distributions that
// render it live).
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams := map[string]*promFamily{}
	family := func(name, typ, help string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, typ: typ, help: help}
			fams[name] = f
		}
		return f
	}

	for _, m := range r.Metrics() {
		base, labels := promSplit(m.Name())
		labels = promJoinLabels(labels, `clock="`+m.Clock().String()+`"`)
		switch m := m.(type) {
		case *Counter:
			f := family(base+"_total", "counter", m.Help())
			promSample(&f.lines, f.name, labels, strconv.FormatInt(m.Value(), 10))
		case *Gauge:
			f := family(base, "gauge", m.Help())
			promSample(&f.lines, f.name, labels, promFloat(m.Value()))
		case *Distribution:
			n := m.Count()
			f := family(base+"_count", "gauge", m.Help()+" (observations)")
			promSample(&f.lines, f.name, labels, strconv.FormatInt(n, 10))
			if n > 0 {
				f = family(base+"_min", "gauge", m.Help()+" (min)")
				promSample(&f.lines, f.name, labels, promFloat(m.Min()))
				f = family(base+"_max", "gauge", m.Help()+" (max)")
				promSample(&f.lines, f.name, labels, promFloat(m.Max()))
				if m.Clock() == Wall {
					f = family(base+"_sum", "gauge", m.Help()+" (sum)")
					promSample(&f.lines, f.name, labels, promFloat(m.Sum()))
				}
			}
		case *Timer:
			promHistogram(family(base, "histogram", m.Help()), labels, &m.Histogram)
		case *Histogram:
			promHistogram(family(base, "histogram", m.Help()), labels, m)
		}
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, promEscapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		b.WriteString(f.lines.String())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promHistogram expands one histogram series into cumulative buckets.
// Bucket k of the obs.Histogram holds integer values in [2^(k-1), 2^k),
// so le="2^k" is its (exclusive, but integer-tight up to 2^53) upper
// bound; only occupied buckets are emitted, plus the mandatory +Inf.
func promHistogram(f *promFamily, labels string, h *Histogram) {
	var cum int64
	for i, n := range h.BucketCounts() {
		if n == 0 {
			continue
		}
		cum += n
		le := "0"
		if i > 0 {
			le = promFloat(math.Ldexp(1, i))
		}
		promSample(&f.lines, f.name+"_bucket", promJoinLabels(labels, `le="`+le+`"`), strconv.FormatInt(cum, 10))
	}
	promSample(&f.lines, f.name+"_bucket", promJoinLabels(labels, `le="+Inf"`), strconv.FormatInt(h.Count(), 10))
	promSample(&f.lines, f.name+"_sum", labels, strconv.FormatInt(h.Sum(), 10))
	promSample(&f.lines, f.name+"_count", labels, strconv.FormatInt(h.Count(), 10))
}

// promFloat renders a float in exposition syntax (+Inf/-Inf/NaN
// spellings included).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteRuntimePrometheus emits the Go runtime's health gauges — heap,
// GC, goroutines — as exposition families alongside the registry's.
// Scrape-time collection keeps them out of the registry (they would be
// Wall-clock gauges polluting every snapshot diff).
func WriteRuntimePrometheus(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var b strings.Builder
	emit := func(name, typ, help, value string) {
		fmt.Fprintf(&b, "# HELP %s%s %s\n# TYPE %s%s %s\n%s%s %s\n",
			PromPrefix, name, help, PromPrefix, name, typ, PromPrefix, name, value)
	}
	emit("go_goroutines", "gauge", "goroutines currently running",
		strconv.Itoa(runtime.NumGoroutine()))
	emit("go_heap_alloc_bytes", "gauge", "bytes of allocated heap objects",
		strconv.FormatUint(ms.HeapAlloc, 10))
	emit("go_heap_sys_bytes", "gauge", "bytes of heap obtained from the OS",
		strconv.FormatUint(ms.HeapSys, 10))
	emit("go_heap_objects", "gauge", "number of allocated heap objects",
		strconv.FormatUint(ms.HeapObjects, 10))
	emit("go_next_gc_bytes", "gauge", "heap size target of the next GC cycle",
		strconv.FormatUint(ms.NextGC, 10))
	emit("go_gc_cycles_total", "counter", "completed GC cycles",
		strconv.FormatUint(uint64(ms.NumGC), 10))
	emit("go_gc_pause_seconds_total", "counter", "cumulative stop-the-world GC pause",
		promFloat(float64(ms.PauseTotalNs)/1e9))
	_, err := io.WriteString(w, b.String())
	return err
}
