package main

import (
	"testing"
	"time"

	"gopim/internal/serve"
)

func TestParseServeFlagsDefaults(t *testing.T) {
	f, err := parseServeFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := serve.Config{
		Addr:           "localhost:8080",
		Workers:        0,
		QueueDepth:     serve.DefaultQueueDepth,
		CacheSize:      serve.DefaultCacheSize,
		RequestTimeout: serve.DefaultRequestTimeout,
		TraceSample:    1,
	}
	if f.cfg.Addr != want.Addr || f.cfg.Workers != want.Workers ||
		f.cfg.QueueDepth != want.QueueDepth || f.cfg.CacheSize != want.CacheSize ||
		f.cfg.RequestTimeout != want.RequestTimeout ||
		f.cfg.TraceSample != want.TraceSample {
		t.Fatalf("defaults = %+v, want %+v", f.cfg, want)
	}
	if f.accessLog != "" {
		t.Fatalf("access log default = %q, want off", f.accessLog)
	}
}

func TestParseServeFlagsTelemetry(t *testing.T) {
	f, err := parseServeFlags([]string{"-access-log", "-"})
	if err != nil {
		t.Fatal(err)
	}
	if f.accessLog != "-" {
		t.Fatalf("accessLog = %q, want -", f.accessLog)
	}
}

func TestParseServeFlagsOverridesAndQueueOff(t *testing.T) {
	f, err := parseServeFlags([]string{
		"-addr", ":9999", "-serve-workers", "3", "-queue", "0",
		"-cache", "16", "-request-timeout", "250ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.cfg.Addr != ":9999" || f.cfg.Workers != 3 || f.cfg.CacheSize != 16 ||
		f.cfg.RequestTimeout != 250*time.Millisecond {
		t.Fatalf("overrides = %+v", f.cfg)
	}
	// -queue 0 means "no queue beyond the workers", which the Config
	// spells as a negative depth (0 would mean the default).
	if f.cfg.QueueDepth != -1 {
		t.Fatalf("QueueDepth = %d, want -1 for -queue 0", f.cfg.QueueDepth)
	}
}

func TestParseServeFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-queue", "-1"},
		{"-cache", "0"},
		{"-request-timeout", "-1s"},
		{"stray-positional"},
	} {
		if _, err := parseServeFlags(args); err == nil {
			t.Errorf("parseServeFlags(%v) accepted invalid input", args)
		}
	}
}
