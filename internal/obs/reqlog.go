package obs

// Request-scoped telemetry: W3C Trace Context identifiers and an
// in-memory log of active and recently completed requests, the data
// source for the serve daemon's /debug/requests inspector. Everything
// here is Wall-clock material — trace IDs are random, stage timings are
// host scheduling — so none of it may feed a Sim-clock metric.

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ------------------------------------------------------- trace context

// TraceContext identifies one request in W3C Trace Context terms: a
// 16-byte trace ID shared by every span of a distributed trace and an
// 8-byte span ID for this hop, both lowercase hex. Sampled carries the
// traceparent sampled flag (bit 0 of trace-flags).
type TraceContext struct {
	TraceID string // 32 lowercase hex characters, not all zero
	SpanID  string // 16 lowercase hex characters, not all zero
	Sampled bool
}

// isLowerHex reports whether s is entirely lowercase hex digits.
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// randHex returns 2n lowercase hex characters of cryptographic
// randomness, never all zero (the W3C invalid value).
func randHex(n int) string {
	b := make([]byte, n)
	for {
		_, _ = rand.Read(b)
		for _, c := range b {
			if c != 0 {
				return hex.EncodeToString(b)
			}
		}
	}
}

// NewTraceContext mints a fresh root trace context (new trace ID, new
// span ID, not sampled).
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8)}
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<trace-id>-<parent-id>-<flags>"). The returned context carries
// the caller's trace ID and parent span ID; ok is false for malformed,
// all-zero, or version-ff values, in which case callers should mint a
// fresh context instead.
func ParseTraceparent(h string) (TraceContext, bool) {
	h = strings.TrimSpace(h)
	parts := strings.Split(h, "-")
	if len(parts) < 4 {
		return TraceContext{}, false
	}
	ver, tid, pid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || !isLowerHex(ver) || ver == "ff" {
		return TraceContext{}, false
	}
	// Version 00 defines exactly four fields; future versions may append.
	if ver == "00" && len(parts) != 4 {
		return TraceContext{}, false
	}
	if len(tid) != 32 || !isLowerHex(tid) || allZero(tid) {
		return TraceContext{}, false
	}
	if len(pid) != 16 || !isLowerHex(pid) || allZero(pid) {
		return TraceContext{}, false
	}
	if len(flags) != 2 || !isLowerHex(flags) {
		return TraceContext{}, false
	}
	f, _ := strconv.ParseUint(flags, 16, 8)
	return TraceContext{TraceID: tid, SpanID: pid, Sampled: f&1 == 1}, true
}

// Traceparent renders the context as a version-00 traceparent header.
func (tc TraceContext) Traceparent() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-" + flags
}

// Child returns a context for a new span in the same trace: same trace
// ID and sampled flag, fresh span ID.
func (tc TraceContext) Child() TraceContext {
	return TraceContext{TraceID: tc.TraceID, SpanID: randHex(8), Sampled: tc.Sampled}
}

// SampleAt makes the head-sampling decision for rate in [0,1]: the
// leading 8 bytes of the trace ID, read as a uint64, are compared
// against rate's share of the full range. The decision is a pure
// function of the trace ID, so every service that sees the same trace
// samples the same requests.
func (tc TraceContext) SampleAt(rate float64) bool {
	if !(rate > 0) {
		return false
	}
	if rate >= 1 {
		return true
	}
	b, err := hex.DecodeString(tc.TraceID[:16])
	if err != nil || len(b) != 8 {
		return false
	}
	v := binary.BigEndian.Uint64(b)
	return float64(v) < rate*float64(math.MaxUint64)
}

// --------------------------------------------------------- request log

// StageRecord is one completed stage of a request's lifecycle, with
// offsets relative to the request's start — the inspector reconstructs
// the waterfall from these.
type StageRecord struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// RequestRecord is one request as the inspector shows it: identity
// (trace/span IDs), shape (method, path, label), outcome (status,
// cache disposition, error), and the per-stage timing waterfall.
type RequestRecord struct {
	Seq       uint64        `json:"seq"`
	TraceID   string        `json:"trace_id"`
	SpanID    string        `json:"span_id"`
	Method    string        `json:"method"`
	Path      string        `json:"path"`
	Label     string        `json:"label,omitempty"`
	Start     time.Time     `json:"start"`
	WallNS    int64         `json:"wall_ns"`
	Status    int           `json:"status"`
	Cache     string        `json:"cache,omitempty"`
	Error     string        `json:"error,omitempty"`
	BodyBytes int64         `json:"body_bytes"`
	Sampled   bool          `json:"sampled"`
	Active    bool          `json:"active,omitempty"`
	Stages    []StageRecord `json:"stages,omitempty"`
}

func (r RequestRecord) clone() RequestRecord {
	r.Stages = append([]StageRecord(nil), r.Stages...)
	return r
}

// RequestLog tracks in-flight requests plus a fixed-size ring of the
// most recently completed ones. All methods are safe for concurrent
// use; snapshots copy, so readers never block writers for long.
type RequestLog struct {
	mu       sync.Mutex
	capacity int
	ring     []RequestRecord
	next     int // overwrite cursor once the ring is full
	active   map[*ActiveRequest]struct{}
	seq      uint64
}

// NewRequestLog returns a log retaining up to capacity completed
// requests (capacity ≤ 0 retains none; active requests are always
// tracked).
func NewRequestLog(capacity int) *RequestLog {
	if capacity < 0 {
		capacity = 0
	}
	return &RequestLog{
		capacity: capacity,
		active:   map[*ActiveRequest]struct{}{},
	}
}

// Begin registers a request as in flight and returns its handle. The
// handle's methods are nil-safe, so code instrumenting a request never
// has to check whether a log is attached.
func (l *RequestLog) Begin(method, path string, tc TraceContext, sampled bool) *ActiveRequest {
	a := &ActiveRequest{
		l: l,
		rec: RequestRecord{
			TraceID: tc.TraceID,
			SpanID:  tc.SpanID,
			Method:  method,
			Path:    path,
			Start:   time.Now(),
			Sampled: sampled,
		},
	}
	l.mu.Lock()
	l.seq++
	a.rec.Seq = l.seq
	l.active[a] = struct{}{}
	l.mu.Unlock()
	return a
}

// Snapshot returns copies of the in-flight requests (WallNS set to
// elapsed-so-far, Active true) and of the completed ring, most recent
// first.
func (l *RequestLog) Snapshot() (active, completed []RequestRecord) {
	l.mu.Lock()
	handles := make([]*ActiveRequest, 0, len(l.active))
	for a := range l.active {
		handles = append(handles, a)
	}
	// Completed, oldest → newest: ring[next:] then ring[:next] once the
	// ring has wrapped; plain order before that.
	completed = make([]RequestRecord, 0, len(l.ring))
	if len(l.ring) == l.capacity && l.capacity > 0 {
		completed = append(completed, l.ring[l.next:]...)
		completed = append(completed, l.ring[:l.next]...)
	} else {
		completed = append(completed, l.ring...)
	}
	l.mu.Unlock()

	// Newest first for display.
	for i, j := 0, len(completed)-1; i < j; i, j = i+1, j-1 {
		completed[i], completed[j] = completed[j], completed[i]
	}

	// Handle locks are taken after the log lock is released — Finish
	// acquires them in the opposite order, so nesting would deadlock.
	now := time.Now()
	for _, a := range handles {
		a.mu.Lock()
		if !a.finished {
			rec := a.rec.clone()
			rec.WallNS = now.Sub(rec.Start).Nanoseconds()
			rec.Active = true
			active = append(active, rec)
		}
		a.mu.Unlock()
	}
	return active, completed
}

// ActiveRequest is the mutable handle for one in-flight request. A nil
// handle is valid: every method is a no-op, so instrumentation can be
// unconditional.
type ActiveRequest struct {
	l        *RequestLog
	mu       sync.Mutex
	rec      RequestRecord
	finished bool
}

// Stage opens a named lifecycle stage and returns the function that
// closes it; the stage is recorded only when closed.
func (a *ActiveRequest) Stage(name string) func() {
	if a == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		a.mu.Lock()
		a.rec.Stages = append(a.rec.Stages, StageRecord{
			Name:    name,
			StartNS: start.Sub(a.rec.Start).Nanoseconds(),
			DurNS:   end.Sub(start).Nanoseconds(),
		})
		a.mu.Unlock()
	}
}

// SetLabel attaches a human-readable work label ("plan:ddi/GoPIM").
func (a *ActiveRequest) SetLabel(label string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.Label = label
	a.mu.Unlock()
}

// SetCache records the cache disposition ("hit", "miss", "coalesced").
func (a *ActiveRequest) SetCache(disposition string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.Cache = disposition
	a.mu.Unlock()
}

// SetError records the request's terminal error message.
func (a *ActiveRequest) SetError(msg string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.Error = msg
	a.mu.Unlock()
}

// Sampled reports whether this request was head-sampled for span
// tracing.
func (a *ActiveRequest) Sampled() bool {
	if a == nil {
		return false
	}
	return a.rec.Sampled // immutable after Begin
}

// Finish seals the record with its terminal status and response size,
// moves it from the active set into the completed ring, and returns a
// copy (the access logger's input).
func (a *ActiveRequest) Finish(status int, bodyBytes int64) RequestRecord {
	if a == nil {
		return RequestRecord{}
	}
	a.mu.Lock()
	a.rec.Status = status
	a.rec.BodyBytes = bodyBytes
	a.rec.WallNS = time.Since(a.rec.Start).Nanoseconds()
	a.finished = true
	rec := a.rec.clone()
	a.mu.Unlock()

	l := a.l
	l.mu.Lock()
	delete(l.active, a)
	if l.capacity > 0 {
		if len(l.ring) < l.capacity {
			l.ring = append(l.ring, rec)
		} else {
			l.ring[l.next] = rec
			l.next = (l.next + 1) % l.capacity
		}
	}
	l.mu.Unlock()
	return rec
}

// ------------------------------------------------------------- context

type activeRequestKey struct{}

// WithActive returns ctx carrying the request handle for downstream
// handlers.
func WithActive(ctx context.Context, a *ActiveRequest) context.Context {
	return context.WithValue(ctx, activeRequestKey{}, a)
}

// ActiveFrom extracts the request handle from ctx (nil when absent —
// and a nil handle's methods are all no-ops).
func ActiveFrom(ctx context.Context) *ActiveRequest {
	a, _ := ctx.Value(activeRequestKey{}).(*ActiveRequest)
	return a
}
