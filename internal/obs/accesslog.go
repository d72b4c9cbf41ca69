package obs

// Structured JSON access logging for the serve daemon, built on
// log/slog. One line per completed request, correlated to traces by
// trace_id — the join key the inspector and the Chrome trace share.

import (
	"context"
	"io"
	"log/slog"
	"sync"
)

// syncWriter serialises concurrent writes so interleaved handlers never
// shear a JSON line.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// AccessLogger emits one structured JSON line per completed request.
// A nil *AccessLogger is valid and logs nothing.
type AccessLogger struct {
	l *slog.Logger
}

// NewAccessLogger returns an access logger writing JSON lines to w,
// safe for concurrent use.
func NewAccessLogger(w io.Writer) *AccessLogger {
	return &AccessLogger{l: slog.New(slog.NewJSONHandler(&syncWriter{w: w}, nil))}
}

// Logger exposes the underlying slog.Logger, so the process warn path
// can be routed through the same sink (see SetLogger).
func (a *AccessLogger) Logger() *slog.Logger {
	if a == nil {
		return nil
	}
	return a.l
}

// LogRequest writes rec as one access-log line.
func (a *AccessLogger) LogRequest(rec RequestRecord) {
	if a == nil {
		return
	}
	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("trace_id", rec.TraceID),
		slog.String("span_id", rec.SpanID),
		slog.String("method", rec.Method),
		slog.String("path", rec.Path),
		slog.Int("status", rec.Status),
		slog.Float64("dur_ms", float64(rec.WallNS)/1e6),
		slog.Int64("bytes", rec.BodyBytes),
	)
	if rec.Label != "" {
		attrs = append(attrs, slog.String("label", rec.Label))
	}
	if rec.Cache != "" {
		attrs = append(attrs, slog.String("cache", rec.Cache))
	}
	if rec.Error != "" {
		attrs = append(attrs, slog.String("error", rec.Error))
	}
	if rec.Sampled {
		attrs = append(attrs, slog.Bool("sampled", true))
	}
	a.l.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
}

// LogShed records a request the daemon turned away (429/503) with the
// reason — these matter most under load, exactly when per-request
// inspection is hardest.
func (a *AccessLogger) LogShed(rec RequestRecord, reason string) {
	if a == nil {
		return
	}
	a.l.LogAttrs(context.Background(), slog.LevelWarn, "request_shed",
		slog.String("trace_id", rec.TraceID),
		slog.String("path", rec.Path),
		slog.Int("status", rec.Status),
		slog.String("reason", reason),
		slog.Float64("dur_ms", float64(rec.WallNS)/1e6))
}
