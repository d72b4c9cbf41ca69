package obs

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServerTimeouts bundles the slow-client hardening knobs every GoPIM
// HTTP server is constructed with. WriteTimeout is deliberately absent:
// pprof's /debug/pprof/profile?seconds=N streams for N seconds, and the
// serve daemon bounds request lifetime with per-request deadlines
// instead of a connection write timeout.
type ServerTimeouts struct {
	// ReadHeader bounds how long a connection may take to deliver its
	// request headers — the slowloris guard.
	ReadHeader time.Duration
	// Read bounds the whole request read, body included.
	Read time.Duration
	// Idle bounds keep-alive connections between requests.
	Idle time.Duration
}

// DefaultServerTimeouts returns the hardening defaults shared by the
// debug server and `gopim serve`.
func DefaultServerTimeouts() ServerTimeouts {
	return ServerTimeouts{
		ReadHeader: 10 * time.Second,
		Read:       time.Minute,
		Idle:       2 * time.Minute,
	}
}

// NewHTTPServer returns an http.Server for handler with the given
// timeouts applied — the one construction path for every HTTP listener
// in the process, so no server is ever started without slow-client
// protection again.
func NewHTTPServer(handler http.Handler, t ServerTimeouts) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: t.ReadHeader,
		ReadTimeout:       t.Read,
		IdleTimeout:       t.Idle,
	}
}

// DebugServer is a running debug HTTP endpoint. Shut it down with
// Shutdown (graceful: in-flight handlers drain) or Close (abrupt).
type DebugServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{} // closed when Serve returns
}

// Addr returns the bound listen address.
func (s *DebugServer) Addr() net.Addr { return s.ln.Addr() }

// Shutdown stops accepting connections and waits for in-flight
// handlers to finish, up to ctx's deadline.
func (s *DebugServer) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	return err
}

// Close abruptly closes the listener and all active connections.
func (s *DebugServer) Close() error { return s.srv.Close() }

// DebugMux returns the debug endpoint set served for reg:
//
//	/debug/pprof/*   net/http/pprof profiles
//	/debug/vars      the standard library's expvar (memstats, cmdline)
//	/debug/metrics   the registry's text snapshot (all clocks)
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.WriteText(w)
	})
	return mux
}

// ServeDebug starts a debug HTTP server on addr (see DebugMux for the
// endpoint set) with the default hardening timeouts. The listener is
// bound synchronously so an unusable address fails here, before any
// experiment runs; the server itself runs in the background until
// Shutdown or Close.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	return serveDebug(addr, reg, DefaultServerTimeouts())
}

// serveDebug is ServeDebug with explicit hardening timeouts, which only
// the package's slowloris test shortens.
func serveDebug(addr string, reg *Registry, t ServerTimeouts) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &DebugServer{
		ln:   ln,
		srv:  NewHTTPServer(DebugMux(reg), t),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}
