package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"gopim/internal/obs"
	"gopim/internal/parallel"
)

// workers is the parallelism every workload runs at: the worker pool
// of the sweep and the daemon, and the plan workload's client count.
const workers = 2

// outcome is what one workload run did and produced.
type outcome struct {
	attempted, failed int
	digest            string
	latMS             []float64 // per-request latency, plan only
}

// workload is one benchmark workload. setup prepares everything the
// fixed work needs (its time is setup_s); run does the fixed work
// (run_s); layers adds the workload's own per-layer numbers after a
// traced run. A nil ledger means an untraced run.
type workload interface {
	setup(seed int64, tr *ledger) error
	run(tr *ledger) (outcome, error)
	layers(m map[string]float64, runS float64)
	close()
}

// workloads are the benchmark's workloads; each type's comment records
// why it was chosen.
var workloads = []struct {
	name, why string
	make      func() workload
}{
	{"sweep", "cold fast evaluation sweep of all 18 experiments: gcn training, mlp/predictor fitting, tensor GEMM, sparsemat and simmemo do almost all the work",
		func() workload { return &sweepWorkload{} }},
	{"plan", "planning daemon under 2 closed-loop clients: misses are mapping from-scratch sorts, hits exercise the serve/singleflight/obs request path",
		func() workload { return &planWorkload{} }},
	{"churn", "streaming churn on arxiv with wear: incremental mapping.ApplyDelta, churn mutation, stage.Build and degraded alloc every epoch",
		func() workload { return &churnWorkload{} }},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.make(), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// childReport is one fresh process's account of one run, sent to the
// orchestrator as the last line of its standard output.
type childReport struct {
	RunS      float64            `json:"run_s"`
	AllocMB   float64            `json:"alloc_mb"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Digest    string             `json:"digest"`
	LatMS     []float64          `json:"lat_ms,omitempty"`
	Cold      map[string]int64   `json:"cold"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	SelfS     map[string]float64 `json:"self_s,omitempty"`
}

// setupSpan is the id of a traced run's "setup" span, the first span
// it opens; workloads hang their set-up spans under it.
const setupSpan = 0

// readyLine tells the orchestrator set-up is done; the time from
// process start to this line is one set-up sample.
const readyLine = "READY"

// childMain runs one workload once in this (fresh) process. With
// setupOnly it stops after set-up; with traced it records spans, turns
// on the program's wall timers and CPU-profiles the run, writing the
// span file and profile into outDir.
func childMain(name string, seed int64, setupOnly, traced bool, stdout io.Writer) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	parallel.SetWorkers(workers)
	var tr *ledger
	var program *obs.Tracer
	if traced {
		obs.SetEnabled(true)
		program = obs.NewTracer()
		obs.SetTracer(program)
		tr = newLedger()
	}
	defer w.close()
	tr.open("setup", -1, 0) // setupSpan
	if err := w.setup(seed, tr); err != nil {
		return err
	}
	runtime.GC() // start the run from the same heap whatever set-up left
	tr.close(setupSpan)
	fmt.Fprintln(stdout, readyLine)
	if setupOnly {
		return nil
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out, runErr := w.run(tr)
	runS := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	if traced {
		pprof.StopCPUProfile()
	}
	rep := childReport{
		RunS:      runS,
		AllocMB:   float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		PeakRSSMB: peakRSSMB(after.Sys),
		Attempted: out.attempted,
		Failed:    out.failed,
		Digest:    out.digest,
		LatMS:     out.latMS,
		Cold:      coldCounters(),
	}
	if runErr != nil {
		rep.Error = runErr.Error()
	}
	if traced {
		if err := tracedLayers(&rep, w, tr, program, prof.Bytes(), filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))); err != nil {
			return err
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// tracedLayers fills a traced run's per-layer numbers and writes its
// span file (<base>.trace.json) and CPU profile (<base>.cpu.pprof).
func tracedLayers(rep *childReport, w workload, tr *ledger, program *obs.Tracer, prof []byte, base string) error {
	m := map[string]float64{}
	programLayers(m) // before layers(): the plan replay adds its own counts
	w.layers(m, rep.RunS)
	shares, _, err := moduleShares(prof)
	if err != nil {
		return err
	}
	for _, mod := range append(append([]string(nil), cpuModules...), "gc", "other") {
		m["cpu."+mod+".share"] = shares[mod]
	}
	rep.Layers = m
	rep.SelfS = map[string]float64{}
	for name, d := range tr.selfTimes() {
		rep.SelfS[name] = d.Seconds()
	}
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f, program); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	return f.Close()
}

// peakRSSMB returns this process's peak resident set (VmHWM), falling
// back to the Go runtime's total mapped memory where /proc is missing.
func peakRSSMB(fallback uint64) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return float64(fallback) / 1e6
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return float64(fallback) / 1e6
}
