package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gopim/internal/alloc"
	"gopim/internal/obs"
	"gopim/internal/pipeline"
)

func TestSingleStageSingleReplica(t *testing.T) {
	s := Simulate(Input{TimesNS: []float64{5}, MicroBatches: 4})
	if s.MakespanNS != 20 {
		t.Fatalf("makespan = %v, want 20", s.MakespanNS)
	}
	if len(s.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(s.Events))
	}
	for j, e := range s.EventsForStage(0) {
		if e.StartNS != float64(j*5) || e.EndNS != float64((j+1)*5) {
			t.Fatalf("event %d = %+v", j, e)
		}
	}
}

// With one replica everywhere, the trace must agree exactly with the
// closed-form pipeline model.
func TestMatchesClosedFormSingleReplica(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		times := make([]float64, n)
		ones := make([]int, n)
		for i := range times {
			times[i] = rng.Float64() * 50
			ones[i] = 1
		}
		b := 1 + rng.Intn(40)
		tr := Simulate(Input{TimesNS: times, MicroBatches: b})
		cf := alloc.TotalTimeNS(times, ones, b)
		return math.Abs(tr.MakespanNS-cf) < 1e-6*cf+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// With replicas, the trace's steady-state throughput matches the
// closed form's t/r bottleneck: makespan within one pipeline fill of
// Σtᵢ + (B−1)·max(tᵢ/rᵢ).
func TestReplicaThroughputMatchesClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		times := make([]float64, n)
		reps := make([]int, n)
		for i := range times {
			times[i] = 1 + rng.Float64()*30
			reps[i] = 1 + rng.Intn(5)
		}
		b := 20 + rng.Intn(100)
		tr := Simulate(Input{TimesNS: times, Replicas: reps, MicroBatches: b})
		cf := alloc.TotalTimeNS(times, reps, b)
		var fill float64
		for _, t := range times {
			fill += t // one full-latency pass bounds the fill/drain gap
		}
		return tr.MakespanNS >= cf-1e-9 && tr.MakespanNS <= cf+2*fill+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Events must never overlap on the same replica, and stage results
// must commit in micro-batch order.
func TestNoReplicaOverlapAndInOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		times := make([]float64, n)
		reps := make([]int, n)
		for i := range times {
			times[i] = 1 + rng.Float64()*10
			reps[i] = 1 + rng.Intn(4)
		}
		s := Simulate(Input{TimesNS: times, Replicas: reps, MicroBatches: 1 + rng.Intn(30)})
		// Group by (stage, replica) and check intervals are disjoint.
		type key struct{ stage, rep int }
		byRep := map[key][]Event{}
		lastEnd := map[int]map[int]float64{} // stage → mb → end
		for _, e := range s.Events {
			byRep[key{e.Stage, e.Replica}] = append(byRep[key{e.Stage, e.Replica}], e)
			if lastEnd[e.Stage] == nil {
				lastEnd[e.Stage] = map[int]float64{}
			}
			lastEnd[e.Stage][e.MicroBatch] = e.EndNS
		}
		for _, evs := range byRep {
			for a := 0; a < len(evs); a++ {
				for b := a + 1; b < len(evs); b++ {
					lo := math.Max(evs[a].StartNS, evs[b].StartNS)
					hi := math.Min(evs[a].EndNS, evs[b].EndNS)
					if hi-lo > 1e-9 {
						return false // overlap
					}
				}
			}
		}
		// In-order commit per stage.
		for _, ends := range lastEnd {
			prev := -1.0
			for j := 0; j < len(ends); j++ {
				if ends[j] < prev-1e-9 {
					return false
				}
				prev = ends[j]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicasImproveMakespan(t *testing.T) {
	times := []float64{1, 8}
	base := Simulate(Input{TimesNS: times, MicroBatches: 32})
	fast := Simulate(Input{TimesNS: times, Replicas: []int{1, 4}, MicroBatches: 32})
	if fast.MakespanNS >= base.MakespanNS {
		t.Fatalf("replicas must shorten the schedule: %v vs %v", fast.MakespanNS, base.MakespanNS)
	}
	util := fast.StageUtilization()
	if util[1] <= util[0] {
		t.Fatalf("bottleneck stage should stay busier: %v", util)
	}
	for _, u := range util {
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("utilisation out of range: %v", util)
		}
	}
}

func TestRenderGantt(t *testing.T) {
	s := Simulate(Input{TimesNS: []float64{2, 4}, Replicas: []int{1, 2}, MicroBatches: 4})
	var buf bytes.Buffer
	if err := s.RenderGanttMarked(&buf, 40, []string{"CO", "AG"}, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "CO") || !strings.Contains(out, "AG") {
		t.Fatalf("gantt missing stage names:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "3") {
		t.Fatalf("gantt missing micro-batch marks:\n%s", out)
	}
	// Degenerate schedule renders gracefully.
	var empty Schedule
	var buf2 bytes.Buffer
	if err := empty.RenderGanttMarked(&buf2, 10, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// A zero-duration stage event whose start coincides with the makespan
// maps to column index == columns; the renderer must clamp it into the
// last cell instead of dropping it (or, before the clamp existed,
// writing out of range).
func TestRenderGanttZeroDurationStage(t *testing.T) {
	s := Simulate(Input{TimesNS: []float64{10, 0}, MicroBatches: 1})
	var buf bytes.Buffer
	if err := s.RenderGanttMarked(&buf, 20, nil, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// Ruler row + two stage rows.
	if len(lines) != 3 {
		t.Fatalf("rows = %d, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[2], "0") {
		t.Fatalf("zero-duration stage invisible in gantt:\n%s", buf.String())
	}
	// Multi-batch variant must also render without panicking.
	s = Simulate(Input{TimesNS: []float64{3, 0, 5}, MicroBatches: 7})
	buf.Reset()
	if err := s.RenderGanttMarked(&buf, 33, []string{"CO", "ZZ", "AG"}, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ZZ") {
		t.Fatalf("missing stage row:\n%s", buf.String())
	}
}

func TestChromeTraceEvents(t *testing.T) {
	s := Simulate(Input{TimesNS: []float64{2000, 4000}, Replicas: []int{1, 2}, MicroBatches: 3})
	evs := s.ChromeTraceEvents([]string{"CO", "AG"})
	var meta, exec int
	seenLane := map[int]bool{}
	for _, e := range evs {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			exec++
			if e.Pid != 2 {
				t.Fatalf("sim event on pid %d", e.Pid)
			}
			seenLane[e.Tid] = true
		}
	}
	// 1 process-name + 3 thread-name metadata events; 2 stages × 3 mbs.
	if meta != 4 || exec != 6 {
		t.Fatalf("meta = %d, exec = %d, want 4, 6", meta, exec)
	}
	// Stage 1's two replicas occupy lanes 1 and 2 after stage 0's lane 0.
	if !seenLane[0] || !seenLane[1] || !seenLane[2] {
		t.Fatalf("lanes used = %v, want {0,1,2}", seenLane)
	}
	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf, s.ChromeTraceEvents([]string{"CO", "AG"})); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != len(evs) {
		t.Fatalf("JSON events = %d, want %d", len(doc.TraceEvents), len(evs))
	}
}

func TestValidation(t *testing.T) {
	cases := []func(){
		func() { Simulate(Input{TimesNS: nil, MicroBatches: 1}) },
		func() { Simulate(Input{TimesNS: []float64{1}, MicroBatches: 0}) },
		func() { Simulate(Input{TimesNS: []float64{-1}, MicroBatches: 1}) },
		func() { Simulate(Input{TimesNS: []float64{1}, Replicas: []int{0}, MicroBatches: 1}) },
		func() { Simulate(Input{TimesNS: []float64{1}, Replicas: []int{1, 1}, MicroBatches: 1}) },
		// Non-finite times must fail at the boundary, before they can
		// poison a Sim metric with NaN/Inf.
		func() { Simulate(Input{TimesNS: []float64{math.NaN()}, MicroBatches: 1}) },
		func() { Simulate(Input{TimesNS: []float64{1, math.Inf(1)}, MicroBatches: 1}) },
		func() { Simulate(Input{TimesNS: []float64{1}, MicroBatches: 1, MicroBatchesPerBatch: -1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// The ruler row and utilisation gutter frame every chart.
func TestRenderGanttRulerAndUtil(t *testing.T) {
	s := Simulate(Input{TimesNS: []float64{2, 4}, Replicas: []int{1, 2}, MicroBatches: 4})
	var buf bytes.Buffer
	if err := s.RenderGanttMarked(&buf, 40, []string{"CO", "AG"}, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows = %d, want ruler + 2 stages:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "t(ns)") || !strings.Contains(lines[0], "util") {
		t.Fatalf("missing ruler row:\n%s", buf.String())
	}
	// Tick labels at 0 and midpoint of the makespan.
	if !strings.Contains(lines[0], "0") {
		t.Fatalf("ruler missing origin tick:\n%s", buf.String())
	}
	for _, ln := range lines[1:] {
		if !strings.HasSuffix(ln, "%") {
			t.Fatalf("stage row missing utilisation gutter: %q", ln)
		}
	}
}

// Marked events render as '*' so the critical path stands out.
func TestRenderGanttMarked(t *testing.T) {
	s := Simulate(Input{TimesNS: []float64{2, 4}, MicroBatches: 3})
	var buf bytes.Buffer
	err := s.RenderGanttMarked(&buf, 30, nil, func(e Event) bool {
		return e.Stage == 1 // whole bottleneck row on-path
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if strings.Contains(lines[1], "*") {
		t.Fatalf("unmarked stage shows marks:\n%s", buf.String())
	}
	if !strings.Contains(lines[2], "*") {
		t.Fatalf("marked stage shows no marks:\n%s", buf.String())
	}
}

// MicroBatchesPerBatch must reproduce the closed-form pipeline model's
// batch-barrier semantics exactly (single replica, integer times, so
// float arithmetic is exact).
func TestBarrierMatchesPipelineIntraBatch(t *testing.T) {
	times := []float64{3, 5, 2}
	for _, per := range []int{1, 3, 4, 8} {
		tr := Simulate(Input{TimesNS: times, MicroBatches: 8, MicroBatchesPerBatch: per})
		cf := pipeline.Simulate(pipeline.Input{
			TimesNS: times, MicroBatches: 8, MicroBatchesPerBatch: per,
			Mode: pipeline.IntraBatch,
		})
		if tr.MakespanNS != cf.MakespanNS {
			t.Fatalf("per=%d: trace %v != pipeline %v", per, tr.MakespanNS, cf.MakespanNS)
		}
	}
	// per=1 is strictly serial: B × Σtᵢ.
	tr := Simulate(Input{TimesNS: times, MicroBatches: 5, MicroBatchesPerBatch: 1})
	if tr.MakespanNS != 5*(3+5+2) {
		t.Fatalf("per=1 makespan = %v, want serial 50", tr.MakespanNS)
	}
}

func TestFlowAndCounterEvents(t *testing.T) {
	s := Simulate(Input{TimesNS: []float64{2000, 4000}, Replicas: []int{1, 2}, MicroBatches: 3})
	chain := []Event{s.Events[0], s.Events[1], s.Events[3]}
	flows := s.FlowEvents(chain, "crit")
	if len(flows) != 4 {
		t.Fatalf("flow events = %d, want 2 pairs", len(flows))
	}
	if flows[0].Ph != "s" || flows[1].Ph != "f" || flows[1].Bp != "e" {
		t.Fatalf("bad flow phases: %+v", flows[:2])
	}
	if flows[0].ID != flows[1].ID || flows[0].ID == flows[2].ID {
		t.Fatalf("flow ids must pair per arrow: %+v", flows)
	}
	ctr := CounterEvents("bubbles", []CounterSample{
		{TsNS: 0, Values: map[string]float64{"fill": 1, "starve": 0}},
		{TsNS: 2000, Values: map[string]float64{"fill": 0, "starve": 2}},
	})
	if len(ctr) != 2 || ctr[0].Ph != "C" || ctr[0].Pid != 2 {
		t.Fatalf("bad counter events: %+v", ctr)
	}
	if v, ok := ctr[1].Args["starve"].(float64); !ok || v != 2 {
		t.Fatalf("counter args must be numeric: %+v", ctr[1].Args)
	}
}
