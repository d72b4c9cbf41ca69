package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records wall-clock spans as Chrome trace events. One tracer
// is installed process-wide with SetTracer; when none is installed,
// StartSpan returns a nil span and the hot path pays a single atomic
// load and zero allocations.
type Tracer struct {
	base  time.Time
	lanes atomic.Int64
	mu    sync.Mutex
	ev    []TraceEvent
}

// NewTracer returns a tracer whose timestamps are relative to now.
func NewTracer() *Tracer { return &Tracer{base: time.Now()} }

var currentTracer atomic.Pointer[Tracer]

// SetTracer installs t as the process tracer (nil disables tracing).
func SetTracer(t *Tracer) { currentTracer.Store(t) }

// CurrentTracer returns the installed tracer, or nil.
func CurrentTracer() *Tracer { return currentTracer.Load() }

// Span is one open wall-clock region. A nil span (tracing disabled) is
// valid and all its methods are no-ops.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	start time.Time
	lane  int64
}

type laneKey struct{}

// StartSpan opens a root span on its own lane (trace-viewer row).
func StartSpan(name string) *Span {
	t := currentTracer.Load()
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, cat: "wall", start: time.Now(), lane: t.lanes.Add(1)}
}

// Start opens a span nested under the lane already carried by ctx (a
// fresh lane if none) and returns a context carrying that lane for
// children. With tracing disabled it returns ctx unchanged and a nil
// span.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := currentTracer.Load()
	if t == nil {
		return ctx, nil
	}
	lane, ok := ctx.Value(laneKey{}).(int64)
	if !ok {
		lane = t.lanes.Add(1)
		ctx = context.WithValue(ctx, laneKey{}, lane)
	}
	return ctx, &Span{t: t, name: name, cat: "wall", start: time.Now(), lane: lane}
}

// End closes the span, appending one complete ("X") trace event.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.ev = append(s.t.ev, TraceEvent{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		Ts:   float64(s.start.Sub(s.t.base)) / 1e3, // µs
		Dur:  float64(now.Sub(s.start)) / 1e3,      // µs
		Pid:  wallPid,
		Tid:  int(s.lane),
	})
	s.t.mu.Unlock()
}

// Events returns a copy of the recorded events in recording order,
// prefixed with process/thread naming metadata.
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.ev)+1)
	out = append(out, processNameEvent(wallPid, "gopim (wall clock)"))
	return append(out, t.ev...)
}

// WriteSummary renders a per-span-name aggregate (count, total, min,
// max wall time), sorted by total descending — the text companion to
// the JSON trace.
func (t *Tracer) WriteSummary(w io.Writer) error {
	t.mu.Lock()
	events := append([]TraceEvent(nil), t.ev...)
	t.mu.Unlock()
	type agg struct {
		name     string
		count    int
		total    float64
		min, max float64
	}
	byName := map[string]*agg{}
	for _, e := range events {
		a := byName[e.Name]
		if a == nil {
			a = &agg{name: e.Name, min: e.Dur, max: e.Dur}
			byName[e.Name] = a
		}
		a.count++
		a.total += e.Dur
		if e.Dur < a.min {
			a.min = e.Dur
		}
		if e.Dur > a.max {
			a.max = e.Dur
		}
	}
	aggs := make([]*agg, 0, len(byName))
	for _, a := range byName {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].total != aggs[j].total {
			return aggs[i].total > aggs[j].total
		}
		return aggs[i].name < aggs[j].name
	})
	var b strings.Builder
	b.WriteString("span summary (wall clock):\n")
	for _, a := range aggs {
		fmt.Fprintf(&b, "  %-32s n=%-4d total %10.3fms  min %10.3fms  max %10.3fms\n",
			a.name, a.count, a.total/1e3, a.min/1e3, a.max/1e3)
	}
	if len(aggs) == 0 {
		b.WriteString("  (no spans recorded)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
