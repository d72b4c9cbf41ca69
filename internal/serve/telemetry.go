package serve

// Wall-clock HTTP telemetry for the daemon: the middleware every
// request passes through (trace-context propagation, the request-log
// record behind /debug/requests, RED metrics, access logging) and the
// scrape-time gauges /metrics refreshes.
//
// Everything registered here lives on the Wall clock — request IDs are
// random, latencies and code classes are scheduling-dependent — so the
// Sim-clock snapshot stays byte-identical whether or not a scraper,
// inspector, or access logger is attached. That is the two-clock
// contract PR 2 established, extended to the daemon's front door.

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"gopim/internal/obs"
)

// Saturation gauges, refreshed at scrape time by /metrics (a gauge set
// per request would only be stale by scrape time anyway).
var (
	mInFlight = obs.NewGauge("http.in_flight",
		"HTTP requests currently being handled")
	mQueueDepth = obs.NewGauge("http.queue_depth",
		"admission tokens held (queued + computing planning requests)")
	mPoolBusy = obs.NewGauge("http.pool_busy",
		"planning workspaces currently checked out")
	mCacheEntries = obs.NewGauge("http.plan_cache_entries",
		"completed plans resident in the LRU cache")
)

// codeClasses are the response classes the RED error counters track:
// the coarse success classes plus each shed/reject status the daemon
// emits deliberately.
var codeClasses = []string{"2xx", "3xx", "400", "404", "405", "429", "4xx", "503", "5xx"}

var classCounters = func() map[string]*obs.Counter {
	m := make(map[string]*obs.Counter, len(codeClasses))
	for _, c := range codeClasses {
		m[c] = obs.NewCounter("http.requests"+obs.LabelSuffix("code", c), obs.Wall,
			"HTTP responses with status class "+c)
	}
	return m
}()

// codeClass buckets a status code into its counter class.
func codeClass(status int) string {
	switch {
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status == 400, status == 404, status == 405, status == 429:
		return strconv.Itoa(status)
	case status < 500:
		return "4xx"
	case status == 503:
		return "503"
	default:
		return "5xx"
	}
}

// routes are the daemon's endpoints; anything else is "other" so the
// per-route latency label set stays bounded whatever clients probe.
var routes = []string{
	"/v1/plan", "/v1/datasets", "/v1/models",
	"/healthz", "/readyz", "/metrics", "/debug/requests",
}

var routeTimers = func() map[string]*obs.Timer {
	m := make(map[string]*obs.Timer, len(routes)+1)
	for _, r := range append(append([]string(nil), routes...), "other") {
		m[r] = obs.NewTimer("http.request_ns"+obs.LabelSuffix("path", r),
			"wall latency of HTTP requests to "+r)
	}
	return m
}()

func routeOf(path string) string {
	for _, r := range routes {
		if path == r {
			return r
		}
	}
	return "other"
}

// statusWriter captures the terminal status and body size of a
// response for the access log and RED counters.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// instrument is the telemetry middleware every endpoint sits behind:
//
//  1. Trace context — accept an incoming W3C traceparent (the request
//     joins the caller's trace) or mint a fresh one; the response
//     echoes our child context so clients can join logs to traces.
//  2. Head sampling — TraceSample of the trace-ID space additionally
//     records Chrome-trace spans for the request's stage tree (an
//     incoming sampled flag is always honored).
//  3. Request log — a record in the /debug/requests ring with the
//     per-stage waterfall handlers append to via the context handle.
//  4. RED metrics — per-class response counters and per-route latency
//     timers, plus the in-flight gauge.
//  5. Access log — one structured JSON line per request, joinable to
//     everything above by trace_id.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		parent, hasParent := obs.ParseTraceparent(r.Header.Get("traceparent"))
		var tc obs.TraceContext
		if hasParent {
			tc = parent.Child()
		} else {
			tc = obs.NewTraceContext()
		}
		tc.Sampled = tc.Sampled || tc.SampleAt(s.cfg.TraceSample)

		route := routeOf(r.URL.Path)
		a := s.reqlog.Begin(r.Method, r.URL.Path, tc, tc.Sampled)
		ctx := obs.WithActive(r.Context(), a)
		var sp *obs.Span
		if tc.Sampled {
			ctx, sp = obs.Start(ctx, "http "+route)
		}

		w.Header().Set("Traceparent", tc.Traceparent())
		w.Header().Set("X-Gopim-Trace-Id", tc.TraceID)
		sw := &statusWriter{ResponseWriter: w}

		mInFlight.Set(float64(s.inflight.Add(1)))
		next.ServeHTTP(sw, r.WithContext(ctx))
		mInFlight.Set(float64(s.inflight.Add(-1)))

		sp.End()
		status := sw.Status()
		rec := a.Finish(status, sw.bytes)
		classCounters[codeClass(status)].Inc()
		routeTimers[route].ObserveDuration(time.Since(start))
		if s.cfg.AccessLog != nil {
			// Only planning requests are shed; any other 503 (a draining
			// /readyz) is an ordinary answer.
			switch {
			case route != "/v1/plan":
				s.cfg.AccessLog.LogRequest(rec)
			case status == http.StatusTooManyRequests:
				s.cfg.AccessLog.LogShed(rec, "queue full")
			case status == http.StatusServiceUnavailable:
				s.cfg.AccessLog.LogShed(rec, rec.Error)
			default:
				s.cfg.AccessLog.LogRequest(rec)
			}
		}
	})
}

// refreshScrapeGauges samples the daemon's saturation state into the
// gauges the exposition carries.
func (s *Server) refreshScrapeGauges() {
	mInFlight.Set(float64(s.inflight.Load()))
	mQueueDepth.Set(float64(len(s.queued)))
	mPoolBusy.Set(float64(s.cfg.Workers - len(s.pool)))
	mCacheEntries.Set(float64(s.cache.Len()))
}

// handleRequests serves GET /debug/requests: every active and recently
// completed request — status, latency, cache disposition, trace ID and
// per-stage waterfall — as one JSON body. It reads copies of the
// Wall-clock request log and never touches a Sim metric, so scraping
// it cannot perturb deterministic snapshots.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	active, completed := s.reqlog.Snapshot()
	writeJSON(w, http.StatusOK, struct {
		Active    []obs.RequestRecord `json:"active"`
		Completed []obs.RequestRecord `json:"completed"`
	}{active, completed})
}

// beginStage opens one named lifecycle stage on the request's
// inspector record and, for sampled requests, mirrors it as a span in
// the wall-clock Chrome trace. The returned func closes both; safe to
// call whether or not a request handle or tracer is attached.
func beginStage(ctx context.Context, name string) func() {
	a := obs.ActiveFrom(ctx)
	endRec := a.Stage(name)
	var sp *obs.Span
	if a.Sampled() {
		_, sp = obs.Start(ctx, "serve."+name)
	}
	return func() {
		sp.End()
		endRec()
	}
}
