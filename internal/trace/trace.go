// Package trace is a discrete-event, replica-level pipeline simulator.
//
// The closed-form model in package pipeline treats r replicas of a
// stage as dividing its per-micro-batch time by r — the paper's own
// approximation (equation (6) with tᵢ/rᵢ). This package simulates the
// alternative operational semantics explicitly: each replica is a
// server with the full stage latency, micro-batches dispatch to the
// earliest-free replica, and the dependency constraints of equations
// (3)–(4) are enforced per event. Both models agree on steady-state
// throughput (one micro-batch per tᵢ/rᵢ at the bottleneck), so the
// trace validates the closed form and additionally yields a Gantt
// chart and exact per-replica utilisation.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"gopim/internal/obs"
	"gopim/internal/simmemo"
)

// Event is one stage execution of one micro-batch on one replica.
type Event struct {
	Stage      int
	MicroBatch int
	Replica    int
	StartNS    float64
	EndNS      float64
}

// Schedule is a complete simulated execution. Schedules returned by
// Simulate may be shared across callers via the memo layer and must be
// treated as read-only.
//
// Events are appended micro-batch-major, stage-minor: the event for
// (stage i, micro-batch j) sits at index j·len(TimesNS)+i. The explain
// analyzer indexes events by this contract.
type Schedule struct {
	Events     []Event
	MakespanNS float64
	// StageBusyNS is total busy time per stage, summed over replicas.
	StageBusyNS []float64
	// Replicas echoes the input replica counts.
	Replicas []int
}

// Input configures a trace simulation.
type Input struct {
	// TimesNS is each stage's full per-micro-batch latency (one
	// replica's service time — NOT divided by the replica count).
	TimesNS []float64
	// Replicas is the number of servers per stage (≥ 1); nil = 1 each.
	Replicas []int
	// MicroBatches is the number of micro-batches to run.
	MicroBatches int
	// MicroBatchesPerBatch, when positive, inserts a full-completion
	// barrier every that many micro-batches — the intra-batch pipeline
	// semantics of pipeline.IntraBatch (weight updates barrier the
	// pipeline between batches). 1 reproduces strictly serial
	// micro-batch execution; 0 (the default) pipelines across batch
	// boundaries with no barrier.
	MicroBatchesPerBatch int
}

// Simulate runs the event-level schedule, memoized on the exact input.
// It records no metrics: its callers (critical-path extraction and the
// ±1-replica what-ifs) re-simulate schedules many times per run.
func Simulate(in Input) *Schedule {
	key := ""
	if len(in.TimesNS)*in.MicroBatches <= memoMaxEvents {
		key = in.fingerprint()
	}
	return simmemo.Do(schedCache, key, nil, func(*obs.Tape) *Schedule { return simulate(in) })
}

// schedCache memoizes event-level schedules by exact input tuple. The
// explain analyzer's what-if perturbations and serve/sweep harnesses
// re-simulate the same handful of inputs repeatedly; 512 entries is
// far above any single run's distinct-input working set (the simmemo
// capacity contract). Hits share the *Schedule — every consumer
// (explain, gantt, Chrome export, serve) treats schedules as
// read-only, which the Schedule doc now pins.
var schedCache = simmemo.NewCache("trace", 512)

// memoMaxEvents bounds what the memo will retain: schedules above
// ~64k events (paper-scale one-off simulations) are cheap relative to
// their footprint to re-run and would crowd the cache.
const memoMaxEvents = 1 << 16

// fingerprint renders the exact stage-input tuple: float64 latencies
// by bit pattern, so two inputs collide only when every field is
// bit-identical.
func (in Input) fingerprint() string {
	var b strings.Builder
	b.Grow(18*len(in.TimesNS) + 8*len(in.Replicas) + 16)
	for _, t := range in.TimesNS {
		b.WriteString(strconv.FormatUint(math.Float64bits(t), 16))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, r := range in.Replicas {
		b.WriteString(strconv.Itoa(r))
		b.WriteByte(',')
	}
	fmt.Fprintf(&b, "|%d|%d", in.MicroBatches, in.MicroBatchesPerBatch)
	return b.String()
}

func simulate(in Input) *Schedule {
	n := len(in.TimesNS)
	if n == 0 {
		panic("trace: no stages")
	}
	if in.MicroBatches < 1 {
		panic(fmt.Sprintf("trace: %d micro-batches", in.MicroBatches))
	}
	if in.MicroBatchesPerBatch < 0 {
		panic(fmt.Sprintf("trace: %d micro-batches per batch", in.MicroBatchesPerBatch))
	}
	replicas := in.Replicas
	if replicas == nil {
		replicas = make([]int, n)
		for i := range replicas {
			replicas[i] = 1
		}
	}
	if len(replicas) != n {
		panic(fmt.Sprintf("trace: %d replica counts for %d stages", len(replicas), n))
	}
	for i, t := range in.TimesNS {
		// NaN/Inf must fail here, at the boundary: every downstream
		// consumer (StageUtilization, the explain analyzer and its Sim
		// metrics) assumes finite event times.
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			panic(fmt.Sprintf("trace: stage %d time %v must be finite and non-negative", i, t))
		}
		if replicas[i] < 1 {
			panic(fmt.Sprintf("trace: stage %d has %d replicas", i, replicas[i]))
		}
	}

	// freeAt[i][k] is when replica k of stage i becomes free.
	freeAt := make([][]float64, n)
	for i := range freeAt {
		freeAt[i] = make([]float64, replicas[i])
	}
	// done[i] is when stage i finished the previous micro-batch — the
	// equation (4) in-order constraint (results must commit in order).
	done := make([]float64, n)

	sched := &Schedule{
		StageBusyNS: make([]float64, n),
		Replicas:    append([]int(nil), replicas...),
	}
	// barrier is the start-of-batch bound: with MicroBatchesPerBatch
	// set, no micro-batch of batch b starts before every event of batch
	// b−1 finished. The bound propagates through the stage-order chain,
	// so applying it to the first stage's ready time is exact.
	barrier := 0.0
	for j := 0; j < in.MicroBatches; j++ {
		if per := in.MicroBatchesPerBatch; per > 0 && j > 0 && j%per == 0 {
			for i := range done {
				if done[i] > barrier {
					barrier = done[i]
				}
			}
		}
		ready := barrier // end of previous stage for this micro-batch
		for i := 0; i < n; i++ {
			// Earliest-free replica.
			k := 0
			for r := 1; r < replicas[i]; r++ {
				if freeAt[i][r] < freeAt[i][k] {
					k = r
				}
			}
			start := ready
			if freeAt[i][k] > start {
				start = freeAt[i][k]
			}
			end := start + in.TimesNS[i]
			// Commit in order: a micro-batch's stage result is not
			// visible before its predecessor's (prevents overtaking).
			if end < done[i] {
				end = done[i]
			}
			freeAt[i][k] = end
			done[i] = end
			ready = end
			sched.Events = append(sched.Events, Event{
				Stage: i, MicroBatch: j, Replica: k, StartNS: start, EndNS: end,
			})
			sched.StageBusyNS[i] += in.TimesNS[i]
			if end > sched.MakespanNS {
				sched.MakespanNS = end
			}
		}
	}
	return sched
}

// StageUtilization returns, per stage, busy time divided by
// (makespan × replicas) — the exact counterpart of the paper's idle
// percentages at replica granularity. Zero-makespan (and empty)
// schedules report zero utilisation everywhere: the guard keeps
// NaN/Inf out of every downstream Sim metric.
func (s *Schedule) StageUtilization() []float64 {
	out := make([]float64, len(s.StageBusyNS))
	for i, busy := range s.StageBusyNS {
		denom := s.MakespanNS * float64(s.Replicas[i])
		if denom > 0 {
			out[i] = busy / denom
		}
	}
	return out
}

// EventsForStage returns the stage's events sorted by start time.
func (s *Schedule) EventsForStage(stage int) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Stage == stage {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].StartNS < out[b].StartNS })
	return out
}

// RenderGanttMarked writes a text Gantt chart with the given number of
// time columns: a time-axis ruler row, one row per stage whose cell
// characters are the micro-batch index mod 10 (blank = idle across all
// replicas), and a per-stage utilisation gutter column. Events for
// which marked returns true render as '*' instead of their micro-batch
// digit, so the critical path that sums to the makespan stands out
// from the pipelined bulk. A nil predicate marks nothing.
func (s *Schedule) RenderGanttMarked(w io.Writer, columns int, names []string, marked func(Event) bool) error {
	if columns < 1 {
		columns = 60
	}
	if s.MakespanNS <= 0 {
		_, err := io.WriteString(w, "(empty schedule)\n")
		return err
	}
	scale := float64(columns) / s.MakespanNS
	util := s.StageUtilization()
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s |%s|  util\n", "t(ns)", ruler(s.MakespanNS, columns))
	for i := range s.StageBusyNS {
		name := fmt.Sprintf("stage %d", i)
		if names != nil && i < len(names) {
			name = names[i]
		}
		row := make([]byte, columns)
		for c := range row {
			row[c] = ' '
		}
		for _, e := range s.EventsForStage(i) {
			lo := int(e.StartNS * scale)
			hi := int(e.EndNS * scale)
			if hi >= columns {
				hi = columns - 1
			}
			// Clamp lo too: a zero-duration event (TimesNS[i] == 0) at
			// the very end of the schedule lands exactly on
			// lo == columns and must render in the last cell, not fall
			// outside the row.
			if lo >= columns {
				lo = columns - 1
			}
			ch := byte('0' + e.MicroBatch%10)
			if marked != nil && marked(e) {
				ch = '*'
			}
			for c := lo; c <= hi; c++ {
				row[c] = ch
			}
		}
		fmt.Fprintf(&b, "%-6s |%s| %5.1f%%\n", name, row, util[i]*100)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ruler renders the time axis: tick labels at 0, ¼, ½ and ¾ of the
// makespan (the right edge IS the makespan, so the last quarter stays
// readable without a clipped label).
func ruler(makespanNS float64, columns int) string {
	row := make([]byte, columns)
	for c := range row {
		row[c] = ' '
	}
	for _, f := range []float64{0, 0.25, 0.5, 0.75} {
		at := int(f * float64(columns))
		label := strconv.FormatFloat(makespanNS*f, 'g', 3, 64)
		for k := 0; k < len(label) && at+k < columns; k++ {
			row[at+k] = label[k]
		}
	}
	return string(row)
}
