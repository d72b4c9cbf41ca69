// Command perfbench is gopim's end-to-end benchmark. Each invocation
// measures one workload, every repetition in a fresh process so each
// run starts cold (the simmemo, shared-predictor and instance caches
// live in process memory), checks the outputs, and prints one JSON
// line of metrics:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// adds one traced repetition and reports the per-layer numbers instead,
// writing its span file and CPU profile under .bench_build/out/.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Run-length limits: an invocation stops repeating once the next
// repetition would overrun --seconds, and gives up on any child still
// running at the deadline, well inside a three-minute cap.
const (
	runSeconds    = 30 // BENCHMARK.json run_seconds and the --seconds default
	maxReps       = 40
	totalDeadline = 170 * time.Second
	// Set-up samples per invocation: at least setupSamples, and up to
	// maxSetups while probing for them has taken under setupProbing.
	setupSamples = 7
	maxSetups    = 25
	setupProbing = time.Second
)

func main() {
	var (
		name      = flag.String("workload", "", "workload: sweep, plan or churn")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", runSeconds, "measuring time budget in seconds")
		traceFlag = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child     = flag.Bool("child", false, "internal: run one repetition in this process")
		setupOnly = flag.Bool("setup-only", false, "internal: child stops after set-up")
		traced    = flag.Bool("traced", false, "internal: child records spans and a CPU profile")
	)
	flag.Parse()
	var err error
	if *child {
		err = childMain(*name, *seed, *setupOnly, *traced, os.Stdout)
	} else {
		err = orchestrate(*name, *seed, *seconds, *traceFlag == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outDir, relative to the checkout root the benchmark runs from, holds
// the traced run's span file, CPU profile and layer table.
const outDir = ".bench_build/out"

// rep is one child run as the orchestrator saw it.
type rep struct {
	setupS float64
	report childReport
}

// spawn runs one child repetition and returns its set-up time (process
// start to the ready line) and report.
func spawn(ctx context.Context, name string, seed int64, setupOnly, traced bool) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	args := []string{"--child", "--workload", name, "--seed", strconv.FormatInt(seed, 10)}
	if setupOnly {
		args = append(args, "--setup-only")
	}
	if traced {
		args = append(args, "--traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return rep{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return rep{}, err
	}
	var r rep
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == readyLine && r.setupS == 0 {
			r.setupS = time.Since(t0).Seconds()
			continue
		}
		last = line
	}
	_, _ = io.Copy(io.Discard, stdout) // drain past an over-long line so Wait can finish
	if err := cmd.Wait(); err != nil {
		return r, fmt.Errorf("%s child: %w", name, err)
	}
	if r.setupS == 0 {
		return r, fmt.Errorf("%s child never finished set-up", name)
	}
	if setupOnly {
		return r, nil
	}
	if err := json.Unmarshal([]byte(last), &r.report); err != nil {
		return r, fmt.Errorf("%s child report: %w", name, err)
	}
	return r, nil
}

// result is the single JSON line an invocation prints last.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// orchestrate measures one workload: untraced repetitions until the
// time budget is spent, extra set-up-only children for more set-up
// samples, and with traced one more, traced,
// repetition. It prints a human summary to standard error and the JSON
// result line to standard output.
func orchestrate(name string, seed int64, seconds int, traced bool) error {
	if _, err := lookupWorkload(name); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), totalDeadline)
	defer cancel()
	budget := time.Duration(seconds) * time.Second
	start := time.Now()

	var reps []rep
	var setups []float64
	var problems []string
	attempted, failed := 0, 0
	// A child that dies counts as failing the operations a healthy run
	// of the same workload attempts (one, before any run reported).
	nominal := 1
	for len(reps) < maxReps {
		t0 := time.Now()
		r, err := spawn(ctx, name, seed, false, false)
		if err != nil {
			problems = append(problems, err.Error())
			attempted += nominal
			failed += nominal
			if ctx.Err() != nil {
				break
			}
		} else {
			reps = append(reps, r)
			setups = append(setups, r.setupS)
			nominal = r.report.Attempted
			attempted += r.report.Attempted
			failed += r.report.Failed
			if r.report.Error != "" {
				problems = append(problems, r.report.Error)
			}
		}
		if time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	if len(reps) == 0 {
		return fmt.Errorf("no repetition of %s completed: %s", name, strings.Join(problems, "; "))
	}
	// Cheap set-ups (a few ms of process start) take more samples: their
	// median moves with single slow starts otherwise.
	probing := time.Now()
	for ctx.Err() == nil && (len(setups) < setupSamples ||
		len(setups) < maxSetups && time.Since(probing) < setupProbing) {
		r, err := spawn(ctx, name, seed, true, false)
		if err != nil {
			return err
		}
		setups = append(setups, r.setupS)
	}
	var tracedRep *rep
	if traced {
		r, err := spawn(ctx, name, seed, false, true)
		if err != nil {
			return err
		}
		tracedRep = &r
		attempted += r.report.Attempted
		failed += r.report.Failed
		if r.report.Error != "" {
			problems = append(problems, r.report.Error)
		}
	}

	all := reps
	if tracedRep != nil {
		all = append(append([]rep(nil), reps...), *tracedRep)
	}
	mismatches, mismatchOps := checkRuns(name, seed, all)
	problems = append(problems, mismatches...)
	failed += mismatchOps

	e2e := map[string]float64{
		"setup_s":     median(setups),
		"run_s":       median(field(reps, func(r childReport) float64 { return r.RunS })),
		"alloc_mb":    median(field(reps, func(r childReport) float64 { return r.AllocMB })),
		"peak_rss_mb": median(field(reps, func(r childReport) float64 { return r.PeakRSSMB })),
	}
	var lat []float64
	for _, r := range reps {
		lat = append(lat, r.report.LatMS...)
	}
	summary(os.Stderr, name, seed, reps, setups, e2e, lat, attempted, failed, problems)

	res := result{Correct: len(problems) == 0 && failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricJSON{}}
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricJSON{Value: e2e[d.Name], Unit: d.Unit}
		}
	} else {
		layers := tracedRep.report.Layers
		layers["tracing.overhead_s"] = tracedRep.report.RunS - e2e["run_s"]
		layers["tracing.overhead_frac"] = layers["tracing.overhead_s"] / e2e["run_s"]
		if len(lat) > 0 {
			layers["plan.samples"] = float64(len(lat))
			layers["plan.p50_ms"], _ = percentile(lat, 50)
			layers["plan.p99_ms"], _ = percentile(lat, 99)
		}
		layers["fail_frac"] = float64(failed) / float64(attempted)
		layers["peak_rss_mb"] = e2e["peak_rss_mb"]
		if err := writeLayerTable(os.Stderr, name, seed, tracedRep.report, layers); err != nil {
			return err
		}
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricJSON{Value: layers[d.Name], Unit: d.Unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func field(reps []rep, f func(childReport) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r.report)
	}
	return out
}

// checkRuns compares the repetitions of one invocation: every run must
// produce the same output digest — the one recorded for this seed, if
// any — and the same cold-start counters. A run that disagrees fails
// all its operations; it returns the problems and how many operations
// they fail beyond those the runs already counted as failed.
func checkRuns(name string, seed int64, reps []rep) (problems []string, failedOps int) {
	want, recorded := recordedDigest(name, seed)
	for i, r := range reps {
		if r.report.Digest == "" {
			continue // the run failed and already counts as such
		}
		if !recorded {
			want, recorded = r.report.Digest, true
		}
		bad := false
		if err := checkDigest(want, r.report.Digest); err != nil {
			problems = append(problems, fmt.Sprintf("run %d: %v", i+1, err))
			bad = true
		}
		for k, v := range r.report.Cold {
			if v0 := reps[0].report.Cold[k]; v != v0 {
				problems = append(problems, fmt.Sprintf("run %d: %s = %d, first run %d: not a cold start", i+1, k, v, v0))
				bad = true
			}
		}
		if bad {
			failedOps += r.report.Attempted - r.report.Failed
		}
	}
	return problems, failedOps
}

// errDigest marks output that differs from the reference.
var errDigest = errors.New("output digest mismatch")

// checkDigest compares one run's output digest against the reference.
func checkDigest(want, got string) error {
	if got != want {
		return fmt.Errorf("%w: got %.12s…, want %.12s…", errDigest, got, want)
	}
	return nil
}

// summary prints the human-readable account of an invocation.
func summary(w io.Writer, name string, seed int64, reps []rep, setups []float64, e2e map[string]float64,
	lat []float64, attempted, failed int, problems []string) {
	fmt.Fprintf(w, "perfbench %s seed %d: %d runs, %d set-up samples\n", name, seed, len(reps), len(setups))
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-12s %12.4f %s\n", d.Name, e2e[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "  %-12s %12.4f MB\n", "peak_rss_mb", e2e["peak_rss_mb"])
	fmt.Fprintf(w, "  per run      ")
	for _, r := range reps {
		fmt.Fprintf(w, " %.3fs/%.0fMB/%.1fMB", r.report.RunS, r.report.AllocMB, r.report.PeakRSSMB)
	}
	fmt.Fprintf(w, "\n  setups       ")
	for _, s := range setups {
		fmt.Fprintf(w, " %.4f", s)
	}
	fmt.Fprintln(w)
	if len(lat) > 0 {
		p50, _ := percentile(lat, 50)
		p99, err := percentile(lat, 99)
		if err != nil {
			fmt.Fprintf(w, "  plan_p50_ms  %12.4f ms (n=%d); p99 withheld: %v\n", p50, len(lat), err)
		} else {
			fmt.Fprintf(w, "  plan_p50_ms  %12.4f ms  plan_p99_ms %.4f ms (n=%d)\n", p50, p99, len(lat))
		}
	}
	fmt.Fprintf(w, "  fail_frac    %12.4f (%d of %d operations)\n", float64(failed)/float64(attempted), failed, attempted)
	if len(reps) > 0 {
		fmt.Fprintf(w, "  digest       %s\n", reps[0].report.Digest)
	}
	for _, p := range problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// writeLayerTable prints the traced run's per-layer numbers and every
// benchmark span's self time, and saves the same table next to the
// span file.
func writeLayerTable(w io.Writer, name string, seed int64, r childReport, layers map[string]float64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer numbers, traced %s seed %d (run_s %.3f, tracing overhead %+.3f s):\n",
		name, seed, r.RunS, layers["tracing.overhead_s"])
	for _, d := range perLayer {
		fmt.Fprintf(&b, "  %-36s %14.6g %-5s -> %s\n", d.Name, layers[d.Name], d.Unit, d.Moves)
	}
	fmt.Fprintf(&b, "benchmark span self times:\n")
	names := make([]string, 0, len(r.SelfS))
	for n := range r.SelfS {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-36s %14.6f s\n", n, r.SelfS[n])
	}
	fmt.Fprint(w, b.String())
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d.layers.txt", name, seed)), []byte(b.String()), 0o644)
}
