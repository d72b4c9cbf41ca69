package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gopim/internal/accel"
	"gopim/internal/fault"
	"gopim/internal/graphgen"
	"gopim/internal/obs"
	"gopim/internal/parallel"
)

var update = flag.Bool("update", false, "rewrite golden files")

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).handler)
	t.Cleanup(ts.Close)
	return ts
}

func postPlan(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/plan: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// goldenRequests are the representative queries the golden files pin.
// The predictor path is excluded deliberately: MLP training is the one
// computation whose floats could drift across architectures, and it
// has its own determinism test below.
var goldenRequests = []struct {
	name string
	body string
}{
	{"arxiv_default", `{"dataset":"arxiv"}`},
	{"ddi_budget", `{"dataset":"ddi","micro_batch":32,"budget":512}`},
	{"collab_theta_simulate", `{"dataset":"collab","theta":0.6,"simulate":true,"model":"GoPIM"}`},
	{"custom_graph", `{"graph":{"name":"social","vertices":50000,"avg_degree":12,"feature_dim":64},"seed":7}`},
	{"serial_whatif", `{"dataset":"Cora","model":"Serial","simulate":true}`},
	{"ddi_explain", `{"dataset":"ddi","explain":true}`},
	{"collab_explain_simulate", `{"dataset":"collab","simulate":true,"explain":true}`},
}

// TestPlanGoldenResponses pins the exact JSON bodies for the
// representative request set.
func TestPlanGoldenResponses(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, tc := range goldenRequests {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postPlan(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			path := filepath.Join("testdata", "plan_"+tc.name+".golden.json")
			if *update {
				if err := os.WriteFile(path, body, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (rerun with -update to create)", err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("response drifted from %s:\ngot:  %s\nwant: %s", path, body, want)
			}
		})
	}
}

// The daemon plans through accel's GoPIM core: at the chip-default
// budget and without the predictor, /v1/plan's per-stage replicas and
// scheduled makespan are accel.Run(GoPIM)'s, bit for bit.
func TestPlanMatchesAccelRun(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, name := range []string{"ddi", "Cora"} {
		checkPlanMatchesRun(t, ts.URL, name)
	}
}

// Under a process-wide fault model the plan describes the chip Run
// simulates — retry-stretched writes, ISU striping around dead
// crossbars, the retirement-shrunk pool — so the plan and the
// response's own simulate block quote one makespan.
func TestFaultedPlanMatchesAccelRun(t *testing.T) {
	fault.SetDefault(fault.MustNew(fault.Config{Rate: 0.01, Seed: 1}))
	defer fault.SetDefault(nil)
	ts := newTestServer(t, Config{})
	plan := checkPlanMatchesRun(t, ts.URL, "ddi")
	if plan.Simulation == nil || plan.Simulation.MakespanNS != plan.ScheduledMakespanNS {
		t.Errorf("simulate block %+v disagrees with scheduled_makespan_ns %v",
			plan.Simulation, plan.ScheduledMakespanNS)
	}
}

// checkPlanMatchesRun plans dataset name with a simulate block and
// checks the plan against accel.Run(GoPIM) under the same defaults.
func checkPlanMatchesRun(t *testing.T, url, name string) PlanResponse {
	t.Helper()
	resp, body := postPlan(t, url, fmt.Sprintf(`{"dataset":%q,"simulate":true}`, name))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
	}
	var plan PlanResponse
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	d, err := graphgen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r := accel.Run(accel.GoPIM, accel.Workload{Dataset: d, Seed: plan.Seed})
	if plan.ScheduledMakespanNS != r.MakespanNS {
		t.Errorf("%s: scheduled_makespan_ns %v, accel.Run makespan %v",
			name, plan.ScheduledMakespanNS, r.MakespanNS)
	}
	if len(plan.Stages) != len(r.Replicas) {
		t.Fatalf("%s: %d planned stages, accel.Run has %d", name, len(plan.Stages), len(r.Replicas))
	}
	for i, s := range plan.Stages {
		if s.Replicas != r.Replicas[i] {
			t.Errorf("%s stage %s: %d replicas planned, accel.Run allocates %d",
				name, s.Name, s.Replicas, r.Replicas[i])
		}
	}
	return plan
}

// TestPlanValidation covers the 4xx surface: malformed bodies, unknown
// names, out-of-range statistics and budgets.
func TestPlanValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
		frag   string // must appear in the error message
	}{
		{"empty body", ``, http.StatusBadRequest, "decode"},
		{"malformed json", `{"dataset":`, http.StatusBadRequest, "decode"},
		{"unknown field", `{"dataset":"arxiv","bogus":1}`, http.StatusBadRequest, "bogus"},
		{"no workload", `{}`, http.StatusBadRequest, "dataset or graph"},
		{"both workloads", `{"dataset":"arxiv","graph":{"vertices":10,"avg_degree":2,"feature_dim":4}}`, http.StatusBadRequest, "not both"},
		{"unknown dataset", `{"dataset":"imagenet"}`, http.StatusBadRequest, "unknown dataset"},
		{"unknown model", `{"dataset":"arxiv","model":"TPU"}`, http.StatusBadRequest, "unknown model"},
		{"zero vertices", `{"graph":{"vertices":0,"avg_degree":2,"feature_dim":4}}`, http.StatusBadRequest, "vertices"},
		{"huge vertices", fmt.Sprintf(`{"graph":{"vertices":%d,"avg_degree":2,"feature_dim":4}}`, MaxVertices+1), http.StatusBadRequest, "vertices"},
		{"bad degree", `{"graph":{"vertices":100,"avg_degree":-1,"feature_dim":4}}`, http.StatusBadRequest, "avg_degree"},
		{"degree over vertices", `{"graph":{"vertices":10,"avg_degree":11,"feature_dim":4}}`, http.StatusBadRequest, "avg_degree"},
		{"bad feature dim", `{"graph":{"vertices":100,"avg_degree":2,"feature_dim":0}}`, http.StatusBadRequest, "feature_dim"},
		{"deep layers", `{"graph":{"vertices":100,"avg_degree":2,"feature_dim":4,"layers":9}}`, http.StatusBadRequest, "layers"},
		{"theta too big", `{"dataset":"arxiv","theta":1.5}`, http.StatusBadRequest, "theta"},
		{"negative budget", `{"dataset":"arxiv","budget":-4}`, http.StatusBadRequest, "budget"},
		{"silly budget", `{"dataset":"arxiv","budget":2000000000}`, http.StatusBadRequest, "budget"},
		{"bad micro batch", `{"dataset":"arxiv","micro_batch":-2}`, http.StatusBadRequest, "micro_batch"},
		{"bad profile", `{"dataset":"arxiv","profile":"turbo"}`, http.StatusBadRequest, "profile"},
		{"second object", `{"dataset":"ddi"}{"dataset":"arxiv"}`, http.StatusBadRequest, "after the JSON object"},
		{"trailing garbage", `{"dataset":"ddi"} garbage`, http.StatusBadRequest, "after the JSON object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postPlan(t, ts.URL, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if !strings.Contains(eb.Error, tc.frag) {
				t.Errorf("error %q does not mention %q", eb.Error, tc.frag)
			}
		})
	}

	t.Run("trailing whitespace", func(t *testing.T) {
		if resp, body := postPlan(t, ts.URL, "{\"dataset\":\"ddi\"}\r\n\t "); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
		}
	})

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/plan")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/plan: status %d, want 405", resp.StatusCode)
		}
	})
}

// TestPlanCacheHitMissEviction pins the cache lifecycle: miss, hit,
// LRU eviction, recompute — and byte-identical bodies throughout.
func TestPlanCacheHitMissEviction(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: 2})
	planned0, hits0, evict0 := mPlans.Value(), mHits.Value(), mEvictions.Value()

	reqA := `{"dataset":"ddi"}`
	reqB := `{"dataset":"Cora"}`
	reqC := `{"dataset":"ddi","micro_batch":128}`

	respA1, bodyA1 := postPlan(t, ts.URL, reqA)
	if got := respA1.Header.Get("X-Gopim-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}
	respA2, bodyA2 := postPlan(t, ts.URL, reqA)
	if got := respA2.Header.Get("X-Gopim-Cache"); got != "hit" {
		t.Fatalf("repeat request cache header %q, want hit", got)
	}
	if !bytes.Equal(bodyA1, bodyA2) {
		t.Fatalf("hit body differs from miss body:\n%s\n%s", bodyA1, bodyA2)
	}

	postPlan(t, ts.URL, reqB) // fills slot 2
	postPlan(t, ts.URL, reqC) // evicts A (LRU: A was refreshed... B is oldest)
	// LRU order after A,A,B: front=B? No: A(miss), A(hit→front), B(miss→front),
	// C(miss→front) evicts the back = A's refresh? order front→back: C,B,A → A evicted.
	respA3, bodyA3 := postPlan(t, ts.URL, reqA)
	if got := respA3.Header.Get("X-Gopim-Cache"); got != "miss" {
		t.Fatalf("post-eviction request cache header %q, want miss (recompute)", got)
	}
	if !bytes.Equal(bodyA1, bodyA3) {
		t.Fatalf("recomputed body differs from original:\n%s\n%s", bodyA1, bodyA3)
	}

	if planned := mPlans.Value() - planned0; planned != 4 {
		t.Errorf("plans_computed delta = %d, want 4 (A, B, C, A-again)", planned)
	}
	if hits := mHits.Value() - hits0; hits != 1 {
		t.Errorf("cache_hits delta = %d, want 1", hits)
	}
	// Two evictions: C pushed A out, then recomputing A pushed B out.
	if evicted := mEvictions.Value() - evict0; evicted != 2 {
		t.Errorf("cache_evictions delta = %d, want 2", evicted)
	}
}

// Two plan misses on a catalog dataset that differ only in budget
// share the dataset's degree model and the simulate block's
// accelerator run: the second miss synthesizes no degree model and
// simulates nothing. Custom graph statistics stay out of both memos,
// so a client cannot fill them with models nobody asks for again.
func TestPlanMissesReuseDegreeModelAndRun(t *testing.T) {
	ts := newTestServer(t, Config{})
	counter := func(name string) *obs.Counter {
		return obs.Default().NewCounter(name, obs.Sim, "")
	}
	degHits, degMisses := counter("simmemo.degmodel_hits"), counter("simmemo.degmodel_misses")
	runHits, runMisses := counter("simmemo.accelrun_hits"), counter("simmemo.accelrun_misses")
	memo := []*obs.Counter{degHits, degMisses, runHits, runMisses}
	// miss posts body, which must miss the plan cache, and returns how
	// far it moved each memo counter.
	miss := func(body string) (degHits, degMisses, runHits, runMisses int64) {
		moved := make([]int64, len(memo))
		for i, c := range memo {
			moved[i] = -c.Value()
		}
		resp, b := postPlan(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Gopim-Cache"); got != "miss" {
			t.Fatalf("%s: cache header %q, want miss", body, got)
		}
		for i, c := range memo {
			moved[i] += c.Value()
		}
		return moved[0], moved[1], moved[2], moved[3]
	}
	miss(`{"dataset":"ddi","seed":41,"budget":512,"simulate":true}`)
	dh, dm, rh, rm := miss(`{"dataset":"ddi","seed":41,"budget":1024,"simulate":true}`)
	// One degmodel hit, for the plan: the simulate block's accelrun hit
	// never fetches the model.
	if dh != 1 || dm != 0 || rh != 1 || rm != 0 {
		t.Errorf("second catalog miss: degmodel hits %d misses %d, accelrun hits %d misses %d; want 1 0 1 0", dh, dm, rh, rm)
	}
	const graph = `"graph":{"vertices":20000,"avg_degree":8,"feature_dim":64}`
	for _, budget := range []int{512, 1024} {
		body := fmt.Sprintf(`{%s,"seed":41,"budget":%d,"simulate":true}`, graph, budget)
		if dh, dm, rh, rm := miss(body); dh != 0 || dm != 0 || rh != 0 || rm != 0 {
			t.Errorf("custom graph miss (budget %d) touched the memos: degmodel %d/%d, accelrun %d/%d", budget, dh, dm, rh, rm)
		}
	}
}

// TestPlanPredictorPathDeterministic exercises use_predictor (shared
// MLP inference) end to end: two requests for the same key must return
// byte-identical bodies, and the response must carry distinct
// alloc-time vs true-time stage latencies.
func TestPlanPredictorPathDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the shared predictor")
	}
	ts := newTestServer(t, Config{})
	req := `{"dataset":"arxiv","use_predictor":true}`
	resp1, body1 := postPlan(t, ts.URL, req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	_, body2 := postPlan(t, ts.URL, req)
	if !bytes.Equal(body1, body2) {
		t.Fatal("predictor-path responses are not byte-identical")
	}
	var pr PlanResponse
	if err := json.Unmarshal(body1, &pr); err != nil {
		t.Fatal(err)
	}
	var differs bool
	for _, s := range pr.Stages {
		if s.AllocTimeNS != s.TimeNS {
			differs = true
		}
	}
	if !differs {
		t.Error("use_predictor=true but every alloc_time_ns equals time_ns — the ML path was not used")
	}
}

// TestConcurrentLoadDeterministic is the headline load test: ≥64
// parallel requests over a small key set, at serve worker counts 1, 2
// and 8, all under -race. Every response must be 200 and byte-
// identical to every other response for the same request — whatever
// the interleaving, whoever computes, wherever coalescing happens.
func TestConcurrentLoadDeterministic(t *testing.T) {
	reqs := []string{
		`{"dataset":"ddi"}`,
		`{"dataset":"Cora","simulate":true}`,
		`{"dataset":"ddi","micro_batch":32}`,
		`{"graph":{"vertices":20000,"avg_degree":8,"feature_dim":32},"seed":3}`,
		`{"dataset":"ddi","explain":true}`,
	}
	canonical := make([][]byte, len(reqs))

	defer parallel.SetWorkers(0)
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		ts := newTestServer(t, Config{Workers: workers, QueueDepth: 256})

		const total = 64
		bodies := make([][]byte, total)
		var wg sync.WaitGroup
		for i := 0; i < total; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := postPlan(t, ts.URL, reqs[i%len(reqs)])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("workers=%d req %d: status %d: %s", workers, i, resp.StatusCode, body)
					return
				}
				bodies[i] = body
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i, b := range bodies {
			ref := i % len(reqs)
			if canonical[ref] == nil {
				canonical[ref] = b
			}
			if !bytes.Equal(b, canonical[ref]) {
				t.Fatalf("workers=%d: request %d body differs from the canonical response for its key", workers, i)
			}
		}
		ts.Close()
	}
}

// TestAdmissionControl pins the backpressure contract: with one
// workspace and no queue, a second concurrent request is shed with
// 429 rather than waiting without bound; once capacity frees, the same
// request succeeds.
func TestAdmissionControl(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: -1, RequestTimeout: 5 * time.Second})
	ts := httptest.NewServer(srv.handler)
	defer ts.Close()

	// Occupy the single workspace (and the single admission token) by
	// draining the pool directly — equivalent to a long-running plan.
	ws := <-srv.pool
	srv.queued <- struct{}{}

	resp, body := postPlan(t, ts.URL, `{"dataset":"ddi","micro_batch":48}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Release capacity: the same request now computes.
	srv.pool <- ws
	<-srv.queued
	resp, body = postPlan(t, ts.URL, `{"dataset":"ddi","micro_batch":48}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
}

// TestQueueDeadline pins the 503 path: a request admitted to the queue
// but unable to get a workspace before its deadline is shed. The only
// workspace stays wedged throughout, so the deadline is the one event
// that can end the wait and the order of events does not depend on a
// timer. Two deadlines end it: the request's own context, which the
// test cancels once the request holds its admission token, and
// Config.RequestTimeout, set to a nanosecond so that it has passed by
// the time the request waits. shed runs one request under cfg and ctx,
// cancelling it with cancel, if that is not nil, once it is admitted.
func TestQueueDeadline(t *testing.T) {
	shed := func(t *testing.T, cfg Config, ctx context.Context, cancel func()) {
		t.Helper()
		srv := New(cfg)
		ws := <-srv.pool // wedge the only workspace
		defer func() { srv.pool <- ws }()

		req := httptest.NewRequest(http.MethodPost, "/v1/plan",
			strings.NewReader(`{"dataset":"Cora","micro_batch":96}`)).WithContext(ctx)
		rec := httptest.NewRecorder()
		shed0 := mDeadline.Value()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handler.ServeHTTP(rec, req)
		}()
		for cancel != nil && len(srv.queued) != 1 {
			select {
			case <-done:
				t.Fatalf("request finished before it was admitted: status %d: %s", rec.Code, rec.Body)
			case <-time.After(time.Millisecond):
			}
		}
		if cancel != nil {
			cancel()
		}
		select {
		case <-done:
		case <-time.After(time.Minute):
			// Only a deadline that does not bound the wait gets here.
			t.Fatal("admitted request still waiting for the wedged workspace after a minute")
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
		}
		if shed := mDeadline.Value() - shed0; shed != 1 {
			t.Fatalf("serve.deadline_shed moved by %d, want 1", shed)
		}
	}
	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		shed(t, Config{Workers: 1, QueueDepth: 4}, ctx, cancel)
	})
	t.Run("request-timeout", func(t *testing.T) {
		shed(t, Config{Workers: 1, QueueDepth: 4, RequestTimeout: time.Nanosecond},
			context.Background(), nil)
	})
}

// TestCacheHitsBypassAdmission: a cached plan must be served even when
// the pool is fully wedged — hits take the fast path.
func TestCacheHitsBypassAdmission(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: -1})
	ts := httptest.NewServer(srv.handler)
	defer ts.Close()

	req := `{"dataset":"Cora","micro_batch":80}`
	if resp, body := postPlan(t, ts.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, body)
	}
	ws := <-srv.pool // wedge all capacity
	defer func() { srv.pool <- ws }()
	resp, body := postPlan(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached request blocked by admission: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Gopim-Cache"); got != "hit" {
		t.Fatalf("cache header %q, want hit", got)
	}
}

// TestAuxEndpoints smoke-tests the discovery and health surface.
func TestAuxEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{})

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return b
	}

	var datasets []datasetInfo
	if err := json.Unmarshal(get("/v1/datasets"), &datasets); err != nil {
		t.Fatal(err)
	}
	if len(datasets) != 7 {
		t.Errorf("datasets: %d entries, want 7", len(datasets))
	}
	var models []string
	if err := json.Unmarshal(get("/v1/models"), &models); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, k := range accel.Kinds() {
		want = append(want, k.String())
	}
	if fmt.Sprint(models) != fmt.Sprint(want) {
		t.Errorf("models = %q, want accel.Kinds() %q", models, want)
	}
	if !strings.Contains(string(get("/healthz")), "ok") {
		t.Error("healthz not ok")
	}
	// /metrics must include the serve counters once traffic has flowed.
	postPlan(t, ts.URL, `{"dataset":"ddi","micro_batch":56}`)
	if m := string(get("/metrics")); !strings.Contains(m, "serve.plans_computed") {
		t.Errorf("/metrics missing serve counters:\n%s", m)
	}
}

// TestStartShutdown exercises the real listener lifecycle: bind,
// serve, graceful shutdown, refused afterwards.
func TestStartShutdown(t *testing.T) {
	srv := New(Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	url := "http://" + srv.Addr().String()
	resp, body := postPlan(t, url, `{"dataset":"Cora"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still reachable after Shutdown")
	}
}

// TestOnRequestHook checks the manifest/progress hook sees terminal
// outcomes.
func TestOnRequestHook(t *testing.T) {
	var mu sync.Mutex
	var ids []string
	var errs []error
	ts := newTestServer(t, Config{OnRequest: func(id string, wall time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		ids = append(ids, id)
		errs = append(errs, err)
	}})
	postPlan(t, ts.URL, `{"dataset":"arxiv","micro_batch":112}`)
	postPlan(t, ts.URL, `{"dataset":"nope"}`)
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(ids))
	}
	if ids[0] != "plan:arxiv/GoPIM" || errs[0] != nil {
		t.Errorf("first hook: id=%q err=%v", ids[0], errs[0])
	}
	if errs[1] == nil {
		t.Error("validation failure did not reach the hook")
	}
}
