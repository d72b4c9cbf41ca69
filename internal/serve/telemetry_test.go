package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gopim/internal/obs"
	"gopim/internal/parallel"
)

// TestTracePropagation pins the W3C trace-context contract: an
// incoming traceparent is joined (same trace ID, fresh span ID), a
// missing or malformed one is replaced with a minted root context, and
// the response always echoes our child context.
func TestTracePropagation(t *testing.T) {
	ts := newTestServer(t, Config{})

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	const parentSpan = "00f067aa0ba902b7"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", "00-"+traceID+"-"+parentSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := resp.Header.Get("X-Gopim-Trace-Id"); got != traceID {
		t.Fatalf("X-Gopim-Trace-Id = %q, want the caller's %q", got, traceID)
	}
	echoed, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get("Traceparent"))
	}
	if echoed.TraceID != traceID {
		t.Fatalf("response joined trace %q, want %q", echoed.TraceID, traceID)
	}
	if echoed.SpanID == parentSpan {
		t.Fatal("response must carry a child span ID, not echo the parent's")
	}
	if !echoed.Sampled {
		t.Fatal("incoming sampled flag must be honored")
	}

	// No (or malformed) traceparent: a fresh root trace is minted.
	for _, hdr := range []string{"", "garbage", "ff-" + traceID + "-" + parentSpan + "-01"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if hdr != "" {
			req.Header.Set("traceparent", hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		minted, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
		if !ok {
			t.Fatalf("minted traceparent %q does not parse", resp.Header.Get("Traceparent"))
		}
		if minted.TraceID == traceID {
			t.Fatalf("request with traceparent %q joined the wrong trace", hdr)
		}
	}
}

// TestReadyzDrain is the readiness regression test: /readyz flips to
// 503 the moment draining begins while /healthz stays 200 — liveness
// and readiness must be distinct signals.
func TestReadyzDrain(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain: %d, want 200", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz before drain: %d, want 200", got)
	}

	srv.BeginDrain()

	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200 (alive, just not ready)", got)
	}

	// Shutdown (even on a never-started server) also begins the drain.
	srv2 := New(Config{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Shutdown: %d, want 503", resp.StatusCode)
	}
}

// TestMetricsNegotiation pins the /metrics format surface: the legacy
// deterministic text by default, exposition for Prometheus/OpenMetrics
// scrapers (linting clean), JSON on request.
func TestMetricsNegotiation(t *testing.T) {
	ts := newTestServer(t, Config{})
	postPlan(t, ts.URL, `{"dataset":"ddi","micro_batch":40}`)

	fetch := func(path, accept string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.Header.Get("Content-Type")
	}

	// Default: the legacy Sim-only snapshot, unchanged for existing CI greps.
	legacy, ct := fetch("/metrics", "")
	if !strings.Contains(legacy, "serve.plans_computed") {
		t.Errorf("legacy text missing serve counters:\n%s", legacy)
	}
	if strings.Contains(legacy, "gopim_") || strings.Contains(ct, "version=0.0.4") {
		t.Error("default format must stay the legacy snapshot, not exposition")
	}

	// Prometheus scrape (by Accept header, text/plain;version=0.0.4).
	prom, ct := fetch("/metrics", "text/plain;version=0.0.4;q=0.9,*/*;q=0.1")
	if !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("prometheus Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE gopim_serve_requests_total counter",
		"gopim_http_requests_total{",
		"gopim_serve_request_ns_bucket{",
		"gopim_http_in_flight",
		"gopim_go_goroutines",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	if errs := obs.LintPrometheusText(strings.NewReader(prom)); len(errs) != 0 {
		t.Errorf("prometheus exposition does not lint clean: %v", errs)
	}

	// OpenMetrics scrape: same families plus the # EOF terminator.
	om, ct := fetch("/metrics", "application/openmetrics-text;version=1.0.0")
	if !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("openmetrics Content-Type = %q", ct)
	}
	if !strings.HasSuffix(strings.TrimSpace(om), "# EOF") {
		t.Error("openmetrics exposition must end with # EOF")
	}
	if errs := obs.LintPrometheusText(strings.NewReader(om)); len(errs) != 0 {
		t.Errorf("openmetrics exposition does not lint clean: %v", errs)
	}

	// Forced via query param, whatever the Accept header says.
	forced, _ := fetch("/metrics?format=prometheus", "text/html")
	if !strings.Contains(forced, "gopim_serve_requests_total") {
		t.Error("?format=prometheus did not force exposition")
	}

	// JSON snapshot.
	js, ct := fetch("/metrics?format=json", "")
	if !strings.Contains(ct, "application/json") {
		t.Errorf("json Content-Type = %q", ct)
	}
	var decoded any
	if err := json.Unmarshal([]byte(js), &decoded); err != nil {
		t.Errorf("json snapshot does not parse: %v", err)
	}

	// The legacy ?clock=all escape hatch still works.
	all, _ := fetch("/metrics?clock=all", "")
	if !strings.Contains(all, "serve.request_ns") {
		t.Error("?clock=all lost the wall section")
	}
}

// TestAccessLogJoinsTraces pins the structured-log contract: one JSON
// line per request whose trace_id equals the response's trace header,
// with status/cache/label fields, and WARN lines for shed requests.
// One workspace and no queue make the shed below independent of the
// host's core count: holding the only workspace and the only admission
// token refuses the next request at any GOMAXPROCS.
func TestAccessLogJoinsTraces(t *testing.T) {
	var buf bytes.Buffer
	srv := New(Config{Workers: 1, QueueDepth: -1, AccessLog: obs.NewAccessLogger(&syncBuffer{buf: &buf})})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postPlan(t, ts.URL, `{"dataset":"ddi","micro_batch":88}`)
	wantTrace := resp.Header.Get("X-Gopim-Trace-Id")
	if wantTrace == "" {
		t.Fatal("response missing X-Gopim-Trace-Id")
	}

	var line map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	found := false
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("access log line is not JSON: %s", sc.Text())
		}
		if m["trace_id"] == wantTrace {
			line, found = m, true
		}
	}
	if !found {
		t.Fatalf("no access-log line with trace_id %q:\n%s", wantTrace, buf.String())
	}
	if line["msg"] != "request" || line["method"] != "POST" || line["path"] != "/v1/plan" {
		t.Fatalf("access line = %v", line)
	}
	if line["status"].(float64) != 200 {
		t.Fatalf("status = %v", line["status"])
	}
	if line["cache"] != "miss" {
		t.Fatalf("cache = %v, want miss", line["cache"])
	}
	if line["label"] != "plan:ddi/GoPIM" {
		t.Fatalf("label = %v", line["label"])
	}

	// A shed request logs at WARN with the reason.
	ws := <-srv.pool
	srv.queued <- struct{}{}
	buf.Reset()
	postPlan(t, ts.URL, `{"dataset":"Cora","micro_batch":104}`)
	srv.pool <- ws
	<-srv.queued
	if !strings.Contains(buf.String(), `"request_shed"`) || !strings.Contains(buf.String(), `"WARN"`) {
		t.Fatalf("shed request not logged at WARN:\n%s", buf.String())
	}
}

// syncBuffer guards a bytes.Buffer for cross-goroutine reads in tests.
type syncBuffer struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// TestRequestInspector exercises /debug/requests in both renderings:
// the JSON payload carries trace IDs, cache dispositions and the stage
// waterfall; the HTML page renders rows and stage bars.
func TestRequestInspector(t *testing.T) {
	ts := newTestServer(t, Config{TraceSample: 0})
	resp, _ := postPlan(t, ts.URL, `{"dataset":"ddi","micro_batch":72,"simulate":true}`)
	wantTrace := resp.Header.Get("X-Gopim-Trace-Id")

	r, err := http.Get(ts.URL + "/debug/requests?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var payload struct {
		Active    []obs.RequestRecord `json:"active"`
		Completed []obs.RequestRecord `json:"completed"`
	}
	if err := json.NewDecoder(r.Body).Decode(&payload); err != nil {
		t.Fatalf("inspector JSON: %v", err)
	}
	var rec *obs.RequestRecord
	for i := range payload.Completed {
		if payload.Completed[i].TraceID == wantTrace {
			rec = &payload.Completed[i]
		}
	}
	if rec == nil {
		t.Fatalf("completed ring has no record for trace %s", wantTrace)
	}
	if rec.Status != 200 || rec.Cache != "miss" || rec.Label != "plan:ddi/GoPIM" {
		t.Fatalf("record = %+v", rec)
	}
	stages := map[string]bool{}
	for _, st := range rec.Stages {
		stages[st.Name] = true
		if st.DurNS < 0 || st.StartNS < 0 {
			t.Fatalf("stage %s has negative offsets: %+v", st.Name, st)
		}
	}
	for _, want := range []string{"cache_lookup", "admission", "workspace_acquire", "plan", "simulate", "marshal"} {
		if !stages[want] {
			t.Errorf("waterfall missing stage %q (have %v)", want, rec.Stages)
		}
	}

	// HTML rendering.
	hr, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	html, _ := io.ReadAll(hr.Body)
	if ct := hr.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("inspector Content-Type = %q", ct)
	}
	for _, want := range []string{"request inspector", "plan:ddi/GoPIM", `class="stage"`, "cache_lookup"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("inspector HTML missing %q", want)
		}
	}
}

// TestSampledRequestEmitsSpans: with TraceSample=1 and a tracer
// installed, a planning request records the full serve stage tree in
// the Chrome trace.
func TestSampledRequestEmitsSpans(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	ts := newTestServer(t, Config{TraceSample: 1})
	postPlan(t, ts.URL, `{"dataset":"Cora","micro_batch":120}`)
	obs.SetTracer(nil)

	names := map[string]bool{}
	for _, ev := range tr.Events() {
		names[ev.Name] = true
	}
	for _, want := range []string{"http /v1/plan", "serve.cache_lookup", "serve.plan", "serve.marshal"} {
		if !names[want] {
			t.Errorf("chrome trace missing span %q (have %v)", want, names)
		}
	}
}

// TestScrapedLoadKeepsSimSnapshotIdentical is the headline two-clock
// regression test: a 64-way /v1/plan load with /metrics and
// /debug/requests scrapers hammering concurrently must leave the
// Sim-clock snapshot byte-identical to an unscraped run — at serve
// worker counts 1, 2 and 8, under -race.
func TestScrapedLoadKeepsSimSnapshotIdentical(t *testing.T) {
	reqs := []string{
		`{"dataset":"ddi"}`,
		`{"dataset":"Cora","simulate":true}`,
		`{"dataset":"ddi","micro_batch":32}`,
		`{"graph":{"vertices":20000,"avg_degree":8,"feature_dim":32},"seed":3}`,
	}

	runLoad := func(workers int, scrape bool) string {
		obs.Default().Reset()
		parallel.SetWorkers(workers)
		srv := New(Config{Workers: workers, QueueDepth: 256, TraceSample: 0.5})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		stop := make(chan struct{})
		var scrapers sync.WaitGroup
		if scrape {
			for _, path := range []string{
				"/metrics?format=prometheus",
				"/metrics?format=openmetrics",
				"/debug/requests?format=json",
				"/debug/requests",
			} {
				path := path
				scrapers.Add(1)
				go func() {
					defer scrapers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						resp, err := http.Get(ts.URL + path)
						if err != nil {
							return // server closing
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}()
			}
		}

		const total = 64
		var wg sync.WaitGroup
		for i := 0; i < total; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := postPlan(t, ts.URL, reqs[i%len(reqs)])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("workers=%d scrape=%v req %d: status %d: %s", workers, scrape, i, resp.StatusCode, body)
				}
			}()
		}
		wg.Wait()
		close(stop)
		scrapers.Wait()

		var snap bytes.Buffer
		if err := obs.Default().WriteText(&snap, obs.Sim); err != nil {
			t.Fatal(err)
		}
		return snap.String()
	}

	defer parallel.SetWorkers(0)
	defer obs.Default().Reset()
	for _, workers := range []int{1, 2, 8} {
		quiet := runLoad(workers, false)
		scraped := runLoad(workers, true)
		if quiet != scraped {
			t.Errorf("workers=%d: Sim snapshot differs between scraped and unscraped runs:\n--- unscraped ---\n%s\n--- scraped ---\n%s",
				workers, quiet, scraped)
		}
	}
}
