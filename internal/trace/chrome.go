package trace

import (
	"fmt"

	"gopim/internal/obs"
)

// ChromeTraceEvents converts the simulated schedule into Chrome
// trace-event form, so paper Gantt data loads in the same viewer
// (chrome://tracing, Perfetto) as the CLI's wall-clock span traces.
// Every (stage, replica) pair becomes one lane, named from names when
// provided ("AG1/r2"); each stage execution becomes one complete event
// labelled with its micro-batch index. Simulated nanoseconds map to
// the format's microsecond timestamps, and the events carry the
// dedicated simulated-time pid so the two clocks never mix in one
// process track.
func (s *Schedule) ChromeTraceEvents(names []string) []obs.TraceEvent {
	base, lanes := s.laneBases()
	// Earliest-free dispatch touches at most MicroBatches replicas of a
	// stage, while the allocation can run to thousands; name only the
	// lanes that carry events so the viewer isn't flooded with empty
	// rows.
	used := make([]bool, lanes)
	for _, e := range s.Events {
		used[base[e.Stage]+e.Replica] = true
	}
	events := make([]obs.TraceEvent, 0, len(s.Events)+lanes+1)
	events = append(events, obs.SimProcessNameEvent())
	for i, r := range s.Replicas {
		name := fmt.Sprintf("stage %d", i)
		if names != nil && i < len(names) {
			name = names[i]
		}
		for k := 0; k < r; k++ {
			if !used[base[i]+k] {
				continue
			}
			events = append(events, obs.ThreadNameEvent(obs.SimPid, base[i]+k,
				fmt.Sprintf("%s/r%d", name, k)))
		}
	}
	for _, e := range s.Events {
		events = append(events, obs.TraceEvent{
			Name: fmt.Sprintf("mb %d", e.MicroBatch),
			Cat:  "sim",
			Ph:   "X",
			Ts:   e.StartNS / 1e3,
			Dur:  (e.EndNS - e.StartNS) / 1e3,
			Pid:  obs.SimPid,
			Tid:  base[e.Stage] + e.Replica,
		})
	}
	return events
}

// laneBases returns the first viewer lane (tid) of each stage and the
// total lane count: replicas of earlier stages stack first.
func (s *Schedule) laneBases() ([]int, int) {
	base := make([]int, len(s.Replicas))
	lanes := 0
	for i, r := range s.Replicas {
		base[i] = lanes
		lanes += r
	}
	return base, lanes
}

// FlowEvents renders an event chain (in schedule order, e.g. the
// explain critical path) as Chrome flow arrows: one "s"/"f" pair per
// consecutive pair of events, drawn from the predecessor's end to the
// successor's start on the same lanes ChromeTraceEvents emits. The
// finish binds to the enclosing slice (bp "e"), so arrows land on the
// successor event itself.
func (s *Schedule) FlowEvents(chain []Event, name string) []obs.TraceEvent {
	base, _ := s.laneBases()
	out := make([]obs.TraceEvent, 0, 2*len(chain))
	for k := 0; k+1 < len(chain); k++ {
		a, b := chain[k], chain[k+1]
		id := fmt.Sprintf("%s-%d", name, k+1)
		out = append(out, obs.TraceEvent{
			Name: name, Cat: "sim", Ph: "s", ID: id,
			Ts: a.EndNS / 1e3, Pid: obs.SimPid, Tid: base[a.Stage] + a.Replica,
		}, obs.TraceEvent{
			Name: name, Cat: "sim", Ph: "f", Bp: "e", ID: id,
			Ts: b.StartNS / 1e3, Pid: obs.SimPid, Tid: base[b.Stage] + b.Replica,
		})
	}
	return out
}

// CounterSample is one point of a simulated-time counter track: the
// per-series values at one instant.
type CounterSample struct {
	TsNS   float64
	Values map[string]float64
}

// CounterEvents renders samples as one Chrome counter track (ph "C")
// on the simulated-time process; the viewer draws each Values key as a
// stacked series. Callers must pass samples in ascending time order
// with a fixed key set for deterministic bytes (encoding/json sorts
// the keys of each sample).
func CounterEvents(name string, samples []CounterSample) []obs.TraceEvent {
	out := make([]obs.TraceEvent, 0, len(samples))
	for _, smp := range samples {
		args := make(map[string]any, len(smp.Values))
		for k, v := range smp.Values {
			args[k] = v
		}
		out = append(out, obs.TraceEvent{
			Name: name, Cat: "sim", Ph: "C",
			Ts: smp.TsNS / 1e3, Pid: obs.SimPid, Args: args,
		})
	}
	return out
}
