package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, ok := ParseTraceparent(valid)
	if !ok {
		t.Fatalf("valid traceparent rejected")
	}
	if tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %q", tc.TraceID)
	}
	if tc.SpanID != "00f067aa0ba902b7" {
		t.Fatalf("span id = %q", tc.SpanID)
	}
	if !tc.Sampled {
		t.Fatal("flags 01 should set Sampled")
	}
	if _, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"); !ok {
		t.Fatal("unsampled variant rejected")
	}

	bad := []string{
		"",
		"garbage",
		"00-short-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-short-01",
		// all-zero IDs are defined invalid
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		// version ff is reserved-invalid
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		// uppercase hex is invalid
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		// version 00 defines exactly four fields
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x",
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted invalid traceparent %q", h)
		}
	}
}

func TestTraceContextRoundTripAndChild(t *testing.T) {
	tc := NewTraceContext()
	if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
		t.Fatalf("fresh context ids %q/%q", tc.TraceID, tc.SpanID)
	}
	got, ok := ParseTraceparent(tc.Traceparent())
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, tc)
	}

	tc.Sampled = true
	child := tc.Child()
	if child.TraceID != tc.TraceID {
		t.Fatal("child must stay in the parent trace")
	}
	if child.SpanID == tc.SpanID {
		t.Fatal("child must get a fresh span id")
	}
	if !child.Sampled {
		t.Fatal("child must inherit the sampled flag")
	}
	if !strings.HasSuffix(child.Traceparent(), "-01") {
		t.Fatalf("sampled traceparent = %q", child.Traceparent())
	}
}

func TestSampleAt(t *testing.T) {
	low := TraceContext{TraceID: "00000000000000ff" + strings.Repeat("0", 16)}
	high := TraceContext{TraceID: "ffffffffffffff00" + strings.Repeat("0", 16)}
	if low.SampleAt(0) || high.SampleAt(0) {
		t.Fatal("rate 0 must sample nothing")
	}
	if !low.SampleAt(1) || !high.SampleAt(1) {
		t.Fatal("rate 1 must sample everything")
	}
	if !low.SampleAt(0.5) {
		t.Fatal("tiny trace id should fall inside a 50% sample")
	}
	if high.SampleAt(0.5) {
		t.Fatal("huge trace id should fall outside a 50% sample")
	}
	// Pure function of the trace ID: repeated decisions agree.
	for i := 0; i < 10; i++ {
		if low.SampleAt(0.5) != true {
			t.Fatal("sampling decision must be deterministic")
		}
	}
}

func TestRequestLogRingAndSnapshot(t *testing.T) {
	l := NewRequestLog(3)
	tc := NewTraceContext()

	a := l.Begin("POST", "/v1/plan", tc, true)
	act, done := l.Snapshot()
	if len(act) != 1 || len(done) != 0 {
		t.Fatalf("snapshot while active: %d active %d completed", len(act), len(done))
	}
	if !act[0].Active || act[0].Status != 0 {
		t.Fatalf("active record = %+v", act[0])
	}
	if act[0].TraceID != tc.TraceID {
		t.Fatal("active record must carry the trace id")
	}

	end := a.Stage("plan")
	end()
	a.SetLabel("plan:ddi/GoPIM")
	a.SetCache("miss")
	rec := a.Finish(200, 123)
	if rec.Status != 200 || rec.BodyBytes != 123 || rec.Cache != "miss" || rec.Label != "plan:ddi/GoPIM" {
		t.Fatalf("finished record = %+v", rec)
	}
	if len(rec.Stages) != 1 || rec.Stages[0].Name != "plan" {
		t.Fatalf("stages = %+v", rec.Stages)
	}
	if rec.Stages[0].StartNS < 0 || rec.Stages[0].DurNS < 0 {
		t.Fatalf("stage offsets must be non-negative: %+v", rec.Stages[0])
	}

	// Fill past capacity: ring keeps the newest 3, newest first.
	for i := 0; i < 5; i++ {
		h := l.Begin("GET", "/healthz", NewTraceContext(), false)
		h.Finish(200+i, 0)
	}
	act, done = l.Snapshot()
	if len(act) != 0 {
		t.Fatalf("%d requests still active", len(act))
	}
	if len(done) != 3 {
		t.Fatalf("ring retained %d, want 3", len(done))
	}
	if done[0].Status != 204 || done[1].Status != 203 || done[2].Status != 202 {
		t.Fatalf("ring order (newest first) = %d,%d,%d", done[0].Status, done[1].Status, done[2].Status)
	}
	for i := 1; i < len(done); i++ {
		if done[i-1].Seq <= done[i].Seq {
			t.Fatal("completed records must be newest-first by Seq")
		}
	}
}

func TestRequestLogZeroCapacity(t *testing.T) {
	l := NewRequestLog(0)
	a := l.Begin("GET", "/x", NewTraceContext(), false)
	a.Finish(200, 0)
	act, done := l.Snapshot()
	if len(act) != 0 || len(done) != 0 {
		t.Fatalf("zero-capacity log retained %d/%d records", len(act), len(done))
	}
}

func TestNilActiveRequestIsNoOp(t *testing.T) {
	var a *ActiveRequest
	a.Stage("x")()
	a.SetLabel("l")
	a.SetCache("hit")
	a.SetError("e")
	if a.Sampled() {
		t.Fatal("nil handle getters must return zero values")
	}
	if rec := a.Finish(200, 0); rec.Status != 0 {
		t.Fatal("nil Finish must return a zero record")
	}
}

func TestActiveRequestContext(t *testing.T) {
	if ActiveFrom(context.Background()) != nil {
		t.Fatal("empty context must yield a nil handle")
	}
	l := NewRequestLog(1)
	a := l.Begin("GET", "/x", NewTraceContext(), false)
	ctx := WithActive(context.Background(), a)
	if ActiveFrom(ctx) != a {
		t.Fatal("context round trip lost the handle")
	}
	a.Finish(200, 0)
}

// TestRequestLogConcurrency exercises Begin/Stage/Finish against
// Snapshot under the race detector — the lock-ordering contract between
// the log lock and per-handle locks.
func TestRequestLogConcurrency(t *testing.T) {
	l := NewRequestLog(8)
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				l.Snapshot()
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				a := l.Begin("POST", "/v1/plan", NewTraceContext(), i%2 == 0)
				end := a.Stage("plan")
				a.SetLabel("load")
				end()
				a.Finish(200, 1)
			}
		}()
	}
	writers.Wait()
	close(stop)
	<-snapDone

	_, done := l.Snapshot()
	if len(done) != 8 {
		t.Fatalf("ring retained %d, want 8", len(done))
	}
}
