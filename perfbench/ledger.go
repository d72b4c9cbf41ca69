package main

import (
	"io"
	"sort"
	"sync"
	"time"

	"gopim/internal/obs"
)

// ledger records the benchmark's own spans around its calls into the
// program's layers. Spans stay in memory; the traced run writes them
// out at the end. A nil ledger (the measured, untraced runs) records
// nothing and costs one nil check per span.
type ledger struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

// span is one closed interval. Parent is the index of the span that
// caused it in ledger.spans order of opening, or -1 for a root; Lane
// groups the spans of one request or worker into one trace-viewer row.
type span struct {
	Name       string
	Parent     int
	Lane       int
	Start, End time.Duration
}

func newLedger() *ledger { return &ledger{base: time.Now()} }

// open starts a span under parent (-1 for a root) and returns its id.
func (l *ledger) open(name string, parent, lane int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.base)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, Lane: lane, Start: now, End: -1})
	return len(l.spans) - 1
}

// close ends span id.
func (l *ledger) close(id int) {
	if l == nil || id < 0 {
		return
	}
	now := time.Since(l.base)
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// do runs fn inside a span named name.
func (l *ledger) do(name string, parent, lane int, fn func()) {
	id := l.open(name, parent, lane)
	fn()
	l.close(id)
}

// selfTimes sums, per span name, each closed span's self time: its
// duration minus the part of that interval its child spans cover.
func (l *ledger) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range l.spans {
		if s.End < 0 {
			continue
		}
		var kids [][2]time.Duration
		for _, c := range children[i] {
			if k := l.spans[c]; k.End >= 0 {
				kids = append(kids, [2]time.Duration{k.Start, k.End})
			}
		}
		out[s.Name] += s.End - s.Start - covered(s.Start, s.End, kids)
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeChrome writes the benchmark's spans, followed by whatever the
// program's own obs tracer recorded, as Chrome trace-event JSON
// (Perfetto and chrome://tracing load it). The benchmark's spans sit on
// pid 10 so they never share a row with the program's.
func (l *ledger) writeChrome(w io.Writer, program *obs.Tracer) error {
	const pid = 10
	l.mu.Lock()
	events := []obs.TraceEvent{{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": "perfbench (benchmark spans)"}}}
	for _, s := range l.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, obs.TraceEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X", Pid: pid, Tid: s.Lane,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
		})
	}
	l.mu.Unlock()
	if program != nil {
		events = append(events, program.Events()...)
	}
	return obs.WriteTraceJSON(w, events)
}
