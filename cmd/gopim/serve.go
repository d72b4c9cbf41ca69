package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gopim/internal/obs"
	"gopim/internal/serve"
)

// serveFlags carries the parsed `gopim serve` configuration.
type serveFlags struct {
	cfg serve.Config
	// accessLog is the structured-log destination: "" = off, "-" =
	// stderr, else a file path. Opened by serveCmd, not here, so flag
	// parsing stays side-effect-free and testable.
	accessLog string
}

// parseServeFlags parses the serve subcommand's own flag set. Split
// from serveCmd so the plumbing is testable without binding sockets.
func parseServeFlags(args []string) (serveFlags, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	workers := fs.Int("serve-workers", 0, "concurrent planning computations (0 = worker-pool size)")
	queue := fs.Int("queue", serve.DefaultQueueDepth, "waiting requests admitted beyond the workers; overflow gets 429")
	cacheSize := fs.Int("cache", serve.DefaultCacheSize, "cached plans before LRU eviction")
	reqTimeout := fs.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request deadline (queue wait + computation)")
	accessLog := fs.String("access-log", "", "structured JSON access log destination (\"-\" = stderr)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gopim [flags] serve [-addr A] [-serve-workers N] [-queue N] [-cache N] [-request-timeout D] [-access-log PATH]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return serveFlags{}, err
	}
	if fs.NArg() != 0 {
		return serveFlags{}, fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	if *queue < 0 {
		return serveFlags{}, fmt.Errorf("serve: -queue %d must be ≥ 0", *queue)
	}
	if *cacheSize < 1 {
		return serveFlags{}, fmt.Errorf("serve: -cache %d must be ≥ 1", *cacheSize)
	}
	if *reqTimeout <= 0 {
		return serveFlags{}, fmt.Errorf("serve: -request-timeout %v must be positive", *reqTimeout)
	}
	f := serveFlags{
		cfg: serve.Config{
			Addr:           *addr,
			Workers:        *workers,
			CacheSize:      *cacheSize,
			RequestTimeout: *reqTimeout,
			// Sample every request: its stage spans reach the Chrome
			// trace whenever -trace-out installs a tracer.
			TraceSample: 1,
		},
		accessLog: *accessLog,
	}
	// Config uses 0 = default, -1 = none; the flags use plain counts.
	if *queue == 0 {
		f.cfg.QueueDepth = -1
	} else {
		f.cfg.QueueDepth = *queue
	}
	return f, nil
}

// serveCmd runs the planning daemon until SIGINT/SIGTERM, then drains
// gracefully so the observability session can still flush its
// artifacts (metrics snapshot, run manifest).
func serveCmd(sess *obsSession, args []string) error {
	f, err := parseServeFlags(args)
	if err != nil {
		return err
	}
	// Per-request manifest records and -progress lines ride the same
	// hooks experiments use.
	_, onDone := sess.hooks()
	if onDone != nil {
		f.cfg.OnRequest = onDone
	}

	// Access log: structured JSON lines to stderr or a file, with the
	// process warn path routed through the same sink so every line of
	// the daemon's output is one greppable stream.
	if f.accessLog != "" {
		var w io.Writer = os.Stderr
		if f.accessLog != "-" {
			af, err := os.Create(f.accessLog)
			if err != nil {
				return fmt.Errorf("-access-log: %w", err)
			}
			defer af.Close()
			w = af
		}
		al := obs.NewAccessLogger(w)
		f.cfg.AccessLog = al
		restore := obs.SetLogger(al.Logger())
		defer restore()
	}

	srv := serve.New(f.cfg)
	if err := srv.Start(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintf(os.Stderr, "gopim: planning daemon on http://%s (POST /v1/plan; %d workers)\n",
		srv.Addr(), srv.Workers())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "gopim: shutting down, draining in-flight requests")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shCtx)
}
