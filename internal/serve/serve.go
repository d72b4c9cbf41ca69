// Package serve implements the gopim planning daemon: a long-running
// HTTP/JSON front end that answers allocation-planning queries —
// "given this graph's stats and this crossbar budget, what replica
// allocation / predicted makespan / θ?" — against shared immutable
// model state (ROADMAP item 2).
//
// # Request lifecycle
//
//	decode → validate/normalize → cache fast path → admission
//	(bounded queue, 429 on overflow, per-request deadline) →
//	workspace acquire → single-flight compute → respond
//
// Planning is a pure function of the normalized request (see
// computePlanStaged), so responses are cached as their final JSON bytes,
// keyed by the normalized request. Identical requests therefore get
// byte-identical bodies whether they hit the cache, coalesce onto an
// in-flight computation, or recompute after eviction — and at any
// worker count.
//
// # Admission control
//
// Concurrency is bounded by a pool of request workspaces (Workers
// slots); arrivals beyond Workers+QueueDepth are rejected immediately
// with 429 rather than queuing without bound, and a queued request
// that cannot get a workspace before its deadline is shed with 503.
// Cache hits bypass admission entirely — they touch no workspace.
//
// # Determinism contract
//
// For a serialized request script, every Sim-clock serve metric
// (requests, plans computed, cache hits, evictions, validation
// rejections) is a pure function of the script, and every response
// body is a pure function of its request — CI replays a script twice
// and diffs both. Scheduling-dependent signals (429s, queue waits,
// latencies) stay on the Wall clock.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gopim/internal/accel"
	"gopim/internal/graphgen"
	"gopim/internal/obs"
	"gopim/internal/parallel"
	"gopim/internal/singleflight"
)

// Serve metrics. The Sim-clock side counts request-set-determined
// quantities (see the package determinism contract); everything
// scheduling-dependent lives on the Wall clock.
var (
	mRequests = obs.NewCounter("serve.requests", obs.Sim,
		"planning API requests received")
	mPlans = obs.NewCounter("serve.plans_computed", obs.Sim,
		"planning computations executed (cache misses)")
	mHits = obs.NewCounter("serve.cache_hits", obs.Sim,
		"planning requests answered from the cache (incl. coalesced)")
	mEvictions = obs.NewCounter("serve.cache_evictions", obs.Sim,
		"cached plans evicted by LRU pressure")
	mBadRequests = obs.NewCounter("serve.bad_requests", obs.Sim,
		"planning requests rejected by validation (4xx)")
	mRejected = obs.NewCounter("serve.rejected_overload", obs.Wall,
		"planning requests shed with 429 (queue full)")
	mDeadline = obs.NewCounter("serve.deadline_shed", obs.Wall,
		"planning requests shed with 503 (deadline hit while queued)")
)

// Config tunes the daemon.
type Config struct {
	// Addr is the listen address (e.g. ":8080").
	Addr string
	// Workers bounds concurrent planning computations; 0 means the
	// process worker-pool size (parallel.Workers()).
	Workers int
	// QueueDepth bounds requests waiting for a workspace beyond the
	// Workers in flight; arrivals past Workers+QueueDepth get 429.
	// 0 means DefaultQueueDepth; negative means no queue (admit only
	// up to Workers).
	QueueDepth int
	// CacheSize bounds the plan cache (entries); 0 means
	// DefaultCacheSize; negative means unbounded.
	CacheSize int
	// RequestTimeout bounds one request's queue wait + computation
	// (default DefaultRequestTimeout).
	RequestTimeout time.Duration
	// OnRequest, when non-nil, observes every planning request after it
	// completes: a short id, its wall duration, and the terminal error
	// (nil for 200s). The CLI wires this to the run manifest.
	OnRequest func(id string, wall time.Duration, err error)
	// AccessLog, when non-nil, receives one structured JSON line per
	// HTTP request (and a warning line per shed request), correlated
	// with traces by trace_id.
	AccessLog *obs.AccessLogger
	// TraceSample is the head-sampling rate in [0,1] for per-request
	// span trees: that fraction of the trace-ID space records
	// Chrome-trace spans for each lifecycle stage. Incoming sampled
	// traceparent flags are always honored regardless.
	TraceSample float64
}

// Defaults for Config's zero values.
const (
	DefaultQueueDepth     = 64
	DefaultCacheSize      = 1024
	DefaultRequestTimeout = 30 * time.Second
	// DefaultRequestRing is how many completed requests /debug/requests
	// retains.
	DefaultRequestRing = 128
)

// Server is the planning daemon.
type Server struct {
	cfg      Config
	cache    *singleflight.Cache[planKey, []byte]
	pool     chan struct{} // workspace tokens: holding one is the right to compute
	queued   chan struct{} // admission tokens: Workers+QueueDepth
	mux      *http.ServeMux
	handler  http.Handler // mux behind the telemetry middleware
	reqlog   *obs.RequestLog
	inflight atomic.Int64
	draining atomic.Bool
	ln       net.Listener
	srv      *http.Server
	done     chan struct{}
	started  bool
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = parallel.Workers()
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = DefaultQueueDepth
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	switch {
	case cfg.CacheSize == 0:
		cfg.CacheSize = DefaultCacheSize
	case cfg.CacheSize < 0:
		cfg.CacheSize = 0
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.TraceSample < 0 {
		cfg.TraceSample = 0
	} else if cfg.TraceSample > 1 {
		cfg.TraceSample = 1
	}
	s := &Server{
		cfg:    cfg,
		cache:  singleflight.New[planKey, []byte](cfg.CacheSize),
		pool:   make(chan struct{}, cfg.Workers),
		queued: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		done:   make(chan struct{}),
	}
	s.cache.OnEvict = func(planKey, []byte) { mEvictions.Inc() }
	for i := 0; i < cfg.Workers; i++ {
		s.pool <- struct{}{}
	}
	s.reqlog = obs.NewRequestLog(DefaultRequestRing)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/requests", s.handleRequests)
	s.handler = s.instrument(s.mux)
	return s
}

// Workers reports the bounded pool size requests compute under.
func (s *Server) Workers() int { return s.cfg.Workers }

// Start binds the listen address — synchronously, so an unusable
// address fails here — and serves in the background until Shutdown.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = obs.NewHTTPServer(s.handler, obs.DefaultServerTimeouts())
	s.started = true
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// BeginDrain flips readiness: /readyz answers 503 from here on, so
// load balancers stop routing new work while in-flight requests
// finish. Shutdown calls it implicitly.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Shutdown stops accepting connections and drains in-flight requests,
// bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	if !s.started {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	return err
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// handlePlan is the planning endpoint: POST /v1/plan.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	mRequests.Inc()
	active := obs.ActiveFrom(r.Context())
	var reqID string
	var terminal error
	defer func() {
		if s.cfg.OnRequest != nil {
			if reqID == "" {
				reqID = "plan:invalid"
			}
			s.cfg.OnRequest(reqID, time.Since(start), terminal)
		}
	}()
	fail := func(status int, err error) {
		terminal = err
		active.SetError(err.Error())
		writeJSON(w, status, errorBody{Error: err.Error()})
	}

	if r.Method != http.MethodPost {
		mBadRequests.Inc()
		w.Header().Set("Allow", http.MethodPost)
		fail(http.StatusMethodNotAllowed, errors.New("use POST with a JSON PlanRequest body"))
		return
	}
	key, err := decodePlanRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		mBadRequests.Inc()
		fail(http.StatusBadRequest, err)
		return
	}
	reqID = fmt.Sprintf("plan:%s/%s", key.datasetOf().Name, key.model)
	active.SetLabel(reqID)

	// Cache fast path: completed plans are served without consuming a
	// workspace or queue slot — hits must stay cheap under load.
	endLookup := beginStage(r.Context(), "cache_lookup")
	body, ok := s.cache.Get(key)
	endLookup()
	if ok {
		mHits.Inc()
		active.SetCache("hit")
		s.writePlan(w, body, "hit")
		return
	}

	// Admission: claim a queue token (bounded: Workers+QueueDepth) or
	// shed immediately — the queue must never grow without bound.
	endAdmission := beginStage(r.Context(), "admission")
	select {
	case s.queued <- struct{}{}:
		endAdmission()
		defer func() { <-s.queued }()
	default:
		endAdmission()
		mRejected.Inc()
		w.Header().Set("Retry-After", "1")
		fail(http.StatusTooManyRequests, errors.New("planning queue full, retry later"))
		return
	}

	// Workspace: wait for a pool slot under the request deadline. This
	// stage's duration is the request's queue time.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	endAcquire := beginStage(r.Context(), "workspace_acquire")
	select {
	case <-s.pool:
		endAcquire()
		defer func() { s.pool <- struct{}{} }()
	case <-ctx.Done():
		endAcquire()
		mDeadline.Inc()
		fail(http.StatusServiceUnavailable, fmt.Errorf("no planning capacity within deadline: %w", ctx.Err()))
		return
	}

	body, out := s.cache.DoOutcome(key, func() []byte {
		mPlans.Inc()
		resp := computePlanStaged(key, func(name string) func() {
			return beginStage(r.Context(), name)
		})
		endMarshal := beginStage(r.Context(), "marshal")
		defer endMarshal()
		// One exact-size allocation: the encoder writes the JSON and
		// its trailing newline straight into the cached body.
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(resp); err != nil {
			panic(fmt.Sprintf("serve: marshal response: %v", err))
		}
		return body.Bytes()
	})
	if out.Hit() {
		mHits.Inc()
	}
	active.SetCache(out.String())
	s.writePlan(w, body, out.String())
}

// writePlan sends a cached plan body with its cache disposition
// ("hit", "miss", or "coalesced"). Bodies are immutable cache values,
// written verbatim so identical requests stay byte-identical.
func (s *Server) writePlan(w http.ResponseWriter, body []byte, disposition string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Gopim-Cache", disposition)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// datasetInfo is one catalog entry of GET /v1/datasets.
type datasetInfo struct {
	Name          string  `json:"name"`
	Task          string  `json:"task"`
	Vertices      int     `json:"vertices"`
	Edges         int     `json:"edges"`
	AvgDegree     float64 `json:"avg_degree"`
	FeatureDim    int     `json:"feature_dim"`
	AdaptiveTheta float64 `json:"adaptive_theta"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	out := make([]datasetInfo, 0, 8)
	for _, d := range graphgen.Catalog() {
		out = append(out, datasetInfo{
			Name:          d.Name,
			Task:          d.Task.String(),
			Vertices:      d.PaperVertices,
			Edges:         d.PaperEdges,
			AvgDegree:     d.PaperAvgDeg,
			FeatureDim:    d.FeatureDim,
			AdaptiveTheta: d.AdaptiveTheta(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	var names []string
	for _, k := range accel.Kinds() {
		names = append(names, k.String())
	}
	writeJSON(w, http.StatusOK, names)
}

// handleHealth is liveness: 200 as long as the process can answer at
// all — it stays 200 through a drain (the process is alive; it just
// doesn't want new work).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is readiness: 200 while the daemon accepts new work,
// 503 once BeginDrain/Shutdown starts draining. Load balancers probe
// this one; orchestrators restart on /healthz.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics serves the registry in the format the Accept header
// asks for:
//
//   - application/openmetrics-text: OpenMetrics, both clocks, plus Go
//     runtime stats and the "# EOF" terminator;
//   - text/plain with version=0.0.4: the same families as Prometheus
//     text 0.0.4, without the terminator;
//   - anything else (plain curl): the legacy deterministic text
//     snapshot, Sim clock only, which snapshot tooling and CI greps
//     read. The Wall numbers stay on the exposition formats.
//
// Exposition requests refresh the saturation gauges first; none of
// that touches a Sim metric, so scraping cannot perturb deterministic
// snapshots.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	accept := r.Header.Get("Accept")
	openMetrics := strings.Contains(accept, "application/openmetrics-text")
	prometheus := strings.Contains(accept, "text/plain") && strings.Contains(accept, "version=0.0.4")
	reg := obs.Default()
	if !openMetrics && !prometheus {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.WriteText(w, obs.Sim)
		return
	}
	s.refreshScrapeGauges()
	if openMetrics {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	_ = reg.WritePrometheus(w)
	_ = obs.WriteRuntimePrometheus(w)
	if openMetrics {
		_, _ = fmt.Fprintln(w, "# EOF")
	}
}
