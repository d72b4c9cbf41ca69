package explain

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"gopim/internal/trace"
)

func analyzeT(t *testing.T, in trace.Input, opt Options) *Result {
	t.Helper()
	return Analyze(in, nil, opt)
}

// The textbook two-stage example: CO=1, AG=6, B=3, one replica each.
// The path is CO(mb0) then AG's three back-to-back executions.
func TestCriticalPathTwoStages(t *testing.T) {
	r := analyzeT(t, trace.Input{TimesNS: []float64{1, 6}, MicroBatches: 3}, Options{})
	if r.MakespanNS != 19 {
		t.Fatalf("makespan = %v, want 19", r.MakespanNS)
	}
	want := []struct {
		stage, mb int
		reason    Reason
	}{
		{0, 0, ReasonSource},
		{1, 0, ReasonDataDep},
		{1, 1, ReasonOccupancy},
		{1, 2, ReasonOccupancy},
	}
	if len(r.Path) != len(want) {
		t.Fatalf("path = %+v", r.Path)
	}
	for k, w := range want {
		p := r.Path[k]
		if p.Stage != w.stage || p.MicroBatch != w.mb || p.Reason != w.reason {
			t.Fatalf("path[%d] = %+v, want %+v", k, p, w)
		}
	}
	if r.Bottleneck != "stage 1" || r.BottleneckStage != 1 {
		t.Fatalf("bottleneck = %q (%d)", r.Bottleneck, r.BottleneckStage)
	}
	if r.Stages[1].SlackRank != 1 || r.Stages[0].SlackRank != 2 {
		t.Fatalf("slack ranks = %d, %d", r.Stages[0].SlackRank, r.Stages[1].SlackRank)
	}
	// Fully pipelined two-stage schedule hits eq.(6) exactly.
	if r.Eq6NS != 19 || r.Eq6GapNS != 0 || r.Eq6GapFrac != 0 {
		t.Fatalf("eq6 = %v gap = %v (%v)", r.Eq6NS, r.Eq6GapNS, r.Eq6GapFrac)
	}
}

// A per-micro-batch barrier (serial execution) must classify the
// cross-stage wait as a barrier dependency.
func TestCriticalPathBarrier(t *testing.T) {
	r := analyzeT(t, trace.Input{
		TimesNS: []float64{2, 3}, MicroBatches: 3, MicroBatchesPerBatch: 1,
	}, Options{})
	if r.MakespanNS != 15 {
		t.Fatalf("makespan = %v, want serial 15", r.MakespanNS)
	}
	if len(r.Path) != 6 {
		t.Fatalf("serial path must include every event: %+v", r.Path)
	}
	if r.PathReasons.Barrier == 0 {
		t.Fatalf("no barrier links on a barriered schedule: %+v", r.PathReasons)
	}
	// Path links tile [0, makespan]: each starts where the previous ended.
	for k := 1; k < len(r.Path); k++ {
		if r.Path[k].StartNS != r.Path[k-1].EndNS {
			t.Fatalf("gap between links %d and %d: %+v", k-1, k, r.Path)
		}
	}
}

// Idle time must be fully attributed: per stage,
// fill+drain+starve+occupancy == makespan·replicas − busy.
func TestBubbleAccountingIdentity(t *testing.T) {
	cases := []trace.Input{
		{TimesNS: []float64{1, 6}, MicroBatches: 3},
		{TimesNS: []float64{1, 6}, Replicas: []int{1, 4}, MicroBatches: 8},
		{TimesNS: []float64{3, 5, 2}, Replicas: []int{2, 1, 3}, MicroBatches: 8, MicroBatchesPerBatch: 4},
		// Over-provisioned: stage 1 can never use 8 lanes for 2 mbs.
		{TimesNS: []float64{1, 4}, Replicas: []int{1, 8}, MicroBatches: 2},
	}
	for ci, in := range cases {
		r := analyzeT(t, in, Options{})
		for i, s := range r.Stages {
			idle := r.MakespanNS*float64(s.Replicas) - s.BusyNS
			sum := s.FillNS + s.DrainNS + s.StarveNS + s.OccupancyNS
			if math.Abs(sum-idle) > 1e-9*(1+idle) {
				t.Fatalf("case %d stage %d: bubbles %v != idle %v (%+v)", ci, i, sum, idle, s)
			}
		}
	}
	// The over-provisioned case must show occupancy on the unused lanes,
	// aggregated into one record.
	r := analyzeT(t, cases[3], Options{})
	if r.Stages[1].OccupancyNS < 6*r.MakespanNS {
		t.Fatalf("unused lanes unattributed: %+v", r.Stages[1])
	}
	found := false
	for _, b := range r.Bubbles {
		if b.Class == BubbleOccupancy && b.Lanes == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no aggregated occupancy bubble: %+v", r.Bubbles)
	}
}

// Zero-duration schedules must yield all-zero, all-finite reports — no
// NaN/Inf can reach a Sim metric.
func TestZeroMakespanGuards(t *testing.T) {
	r := analyzeT(t, trace.Input{TimesNS: []float64{0, 0}, MicroBatches: 2}, Options{Sensitivity: true})
	if r.MakespanNS != 0 {
		t.Fatalf("makespan = %v", r.MakespanNS)
	}
	if len(r.Path) != 1 || r.Path[0].Reason != ReasonSource {
		t.Fatalf("path = %+v", r.Path)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("NaN")) || bytes.Contains(data, []byte("Inf")) {
		t.Fatalf("non-finite value in result: %s", data)
	}
	for _, s := range r.Stages {
		for _, v := range []float64{s.Utilization, s.CritShare, s.SlackNS,
			s.FillNS, s.DrainNS, s.StarveNS, s.OccupancyNS, s.DeltaPlusNS, s.DeltaMinusNS} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite stage value: %+v", s)
			}
		}
	}
	if math.IsNaN(r.Eq6GapFrac) || math.IsInf(r.Eq6GapFrac, 0) {
		t.Fatalf("gap frac = %v", r.Eq6GapFrac)
	}
}

// Sensitivity deltas must be monotone: one more replica never hurts,
// one fewer never helps; and a single-replica stage has no minus delta.
func TestSensitivityMonotone(t *testing.T) {
	r := analyzeT(t, trace.Input{
		TimesNS: []float64{1, 6}, Replicas: []int{1, 3}, MicroBatches: 16,
	}, Options{Sensitivity: true})
	if !r.Sensitivity {
		t.Fatal("sensitivity not marked")
	}
	for i, s := range r.Stages {
		if s.DeltaPlusNS > 1e-9 {
			t.Fatalf("stage %d: +1 replica worsened makespan by %v", i, s.DeltaPlusNS)
		}
		if s.DeltaMinusNS < -1e-9 {
			t.Fatalf("stage %d: -1 replica improved makespan by %v", i, s.DeltaMinusNS)
		}
	}
	if r.Stages[0].DeltaMinusNS != 0 {
		t.Fatalf("single-replica stage must have no minus delta: %+v", r.Stages[0])
	}
	// The bottleneck's -1 delta must actually bite.
	if r.Stages[1].DeltaMinusNS <= 0 {
		t.Fatalf("removing a bottleneck replica must cost time: %+v", r.Stages[1])
	}
	// Without the option, no deltas are computed.
	r2 := analyzeT(t, trace.Input{TimesNS: []float64{1, 6}, MicroBatches: 4}, Options{})
	if r2.Sensitivity || r2.Stages[1].DeltaPlusNS != 0 {
		t.Fatalf("sensitivity leaked: %+v", r2.Stages)
	}
}

func TestStageTableAndSummary(t *testing.T) {
	r := Analyze(trace.Input{TimesNS: []float64{1, 6}, MicroBatches: 3},
		[]string{"CO1", "AG1"}, Options{Sensitivity: true})
	header, rows, notes := r.StageTable()
	if len(rows) != 2 || rows[0][0] != "CO1" || rows[1][0] != "AG1" {
		t.Fatalf("rows = %+v", rows)
	}
	if len(header) != 12 {
		t.Fatalf("header = %v", header)
	}
	for _, row := range rows {
		if len(row) != len(header) {
			t.Fatalf("ragged row %v vs header %v", row, header)
		}
	}
	if rows[0][11] != "n/a" {
		t.Fatalf("single-replica minus delta must be n/a: %v", rows[0])
	}
	joined := strings.Join(notes, "\n")
	if !strings.Contains(joined, "bottleneck: AG1") {
		t.Fatalf("summary missing bottleneck: %v", notes)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if parsed["bottleneck"] != "AG1" {
		t.Fatalf("bottleneck key = %v", parsed["bottleneck"])
	}
}

func TestChromeTraceEventsComposition(t *testing.T) {
	r := analyzeT(t, trace.Input{TimesNS: []float64{1, 6}, Replicas: []int{1, 2}, MicroBatches: 4}, Options{})
	evs := r.ChromeTraceEvents([]string{"CO", "AG"})
	var flows, counters int
	prevTs := math.Inf(-1)
	for _, e := range evs {
		switch e.Ph {
		case "s", "f":
			flows++
		case "C":
			counters++
			if e.Ts < prevTs {
				t.Fatalf("counter samples out of order: %+v", evs)
			}
			prevTs = e.Ts
			for _, c := range BubbleClasses {
				if _, ok := e.Args[c]; !ok {
					t.Fatalf("counter sample missing class %q: %+v", c, e.Args)
				}
			}
		}
	}
	if flows != 2*(len(r.Path)-1) {
		t.Fatalf("flows = %d for %d path events", flows, len(r.Path))
	}
	if counters == 0 {
		t.Fatal("no bubble counter samples")
	}
}

func TestOnPath(t *testing.T) {
	r := analyzeT(t, trace.Input{TimesNS: []float64{1, 6}, MicroBatches: 3}, Options{})
	if !r.OnPath(trace.Event{Stage: 1, MicroBatch: 2}) {
		t.Fatal("final event must be on path")
	}
	if r.OnPath(trace.Event{Stage: 0, MicroBatch: 2}) {
		t.Fatal("late first-stage event is not on the path")
	}
}

// Analyze's schedule is trace.Simulate's, and it records one
// explain.analyses per call.
func TestAnalyzeUsesUnrecordedSimulation(t *testing.T) {
	before := mAnalyses.Value()
	in := trace.Input{TimesNS: []float64{2, 3}, MicroBatches: 4}
	tr := trace.Simulate(in)
	r := analyzeT(t, in, Options{Sensitivity: true})
	if r.MakespanNS != tr.MakespanNS {
		t.Fatalf("analyzer schedule diverges: %v vs %v", r.MakespanNS, tr.MakespanNS)
	}
	if mAnalyses.Value() != before+1 {
		t.Fatalf("explain.analyses = %d, want %d", mAnalyses.Value(), before+1)
	}
}
