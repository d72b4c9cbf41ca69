package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestNilSpanIsNoop(t *testing.T) {
	SetTracer(nil)
	sp := StartSpan("anything")
	if sp != nil {
		t.Fatal("StartSpan must return nil without a tracer")
	}
	sp.End() // must not panic
	ctx, sp2 := Start(context.Background(), "x")
	if sp2 != nil || ctx != context.Background() {
		t.Fatal("Start must be a no-op without a tracer")
	}
}

func TestSpansRecordAndExportJSON(t *testing.T) {
	tr := NewTracer()
	SetTracer(tr)
	defer SetTracer(nil)

	outer := StartSpan("outer")
	time.Sleep(time.Millisecond)
	inner := StartSpan("inner")
	inner.End()
	outer.End()

	events := tr.Events()
	var spans []TraceEvent
	for _, e := range events {
		if e.Ph == "X" {
			spans = append(spans, e)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if spans[0].Name != "inner" || spans[1].Name != "outer" {
		t.Fatalf("span order = %s,%s (End order expected)", spans[0].Name, spans[1].Name)
	}
	if spans[1].Dur <= 0 {
		t.Fatal("outer span has no duration")
	}
	if spans[0].Tid == spans[1].Tid {
		t.Fatal("root spans must land on distinct lanes")
	}

	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(decoded.TraceEvents) != len(events) {
		t.Fatalf("JSON has %d events, want %d", len(decoded.TraceEvents), len(events))
	}
}

func TestStartNestsOnOneLane(t *testing.T) {
	tr := NewTracer()
	SetTracer(tr)
	defer SetTracer(nil)

	ctx, root := Start(context.Background(), "root")
	_, child := Start(ctx, "child")
	child.End()
	root.End()
	var spans []TraceEvent
	for _, e := range tr.Events() {
		if e.Ph == "X" {
			spans = append(spans, e)
		}
	}
	if len(spans) != 2 || spans[0].Tid != spans[1].Tid {
		t.Fatalf("ctx-nested spans must share a lane: %+v", spans)
	}
}

func TestWriteSummary(t *testing.T) {
	tr := NewTracer()
	SetTracer(tr)
	defer SetTracer(nil)
	for i := 0; i < 3; i++ {
		StartSpan("work").End()
	}
	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "work") || !strings.Contains(buf.String(), "n=3") {
		t.Fatalf("summary:\n%s", buf.String())
	}
}

func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("debug.test_metric", Sim, "").Add(11)
	ln, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "debug.test_metric counter count=11") {
		t.Fatalf("/debug/metrics:\n%s", buf.String())
	}
	vars, err := http.Get("http://" + ln.Addr().String() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars.Body.Close()
	if vars.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", vars.StatusCode)
	}
}

func TestServeDebugBadAddrFails(t *testing.T) {
	if _, err := ServeDebug("256.256.256.256:0", NewRegistry()); err == nil {
		t.Fatal("expected error for invalid address")
	}
}
