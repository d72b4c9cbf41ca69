// Package experiments regenerates every table and figure of the
// paper's evaluation (§VII). Each experiment is a registered harness
// that runs the relevant workloads through the simulator (or the GCN
// training engine) and renders the same rows/series the paper reports,
// annotated with the paper's own numbers for side-by-side comparison.
//
// Absolute values differ from the paper (our substrate is an analytic
// reimplementation, not the authors' NeuroSim testbed); the shapes —
// who wins, by roughly what factor, where crossovers fall — are the
// reproduction target. See EXPERIMENTS.md for the recorded outcomes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gopim/internal/obs"
	"gopim/internal/parallel"
)

// Harness metrics: the run count is fixed by the id list (Sim); the
// per-run timer measures real scheduling (Wall).
var (
	mExpRuns = obs.NewCounter("experiments.runs", obs.Sim,
		"experiment harness executions")
	mExpWall = obs.NewTimer("experiments.wall_ns",
		"wall time per experiment harness run")
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives all synthetic graph generation.
	Seed int64
	// Fast shrinks workloads for smoke tests and benchmarks: smaller
	// graphs, fewer epochs, fewer sweep points. Headline shapes are
	// preserved.
	Fast bool
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	// Paper summarises what the paper reports for this artifact.
	Paper  string
	Header []string
	Rows   [][]string
	// Notes records deviations and modelling caveats.
	Notes []string
}

// columns returns the table's column count: the header width, widened
// to the longest row. Every renderer lays out exactly this many cells
// per row, padding missing ones with empty strings, so ragged results
// render consistently (and without panics) in all three formats.
func (r *Result) columns() int {
	n := len(r.Header)
	for _, row := range r.Rows {
		if len(row) > n {
			n = len(row)
		}
	}
	return n
}

// padCells returns cells extended with empty strings to length n.
func padCells(cells []string, n int) []string {
	if len(cells) >= n {
		return cells
	}
	out := make([]string, n)
	copy(out, cells)
	return out
}

// Render writes the result as an aligned text table.
func (r *Result) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	ncols := r.columns()
	widths := make([]int, ncols)
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range padCells(cells, ncols) {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Runner regenerates one paper artifact.
type Runner func(Options) (*Result, error)

var registry = map[string]Runner{}

// register adds a harness; experiment files call it from init.
func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", id))
	}
	registry[id] = r
}

// IDs lists registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id.
func Run(id string, opt Options) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	mExpRuns.Inc()
	t0 := obs.NowIfEnabled()
	sp := obs.StartSpan("experiment:" + id)
	res, err := r(opt)
	sp.End()
	mExpWall.ObserveSince(t0)
	return res, err
}

// RunAll executes the given experiments concurrently — each harness
// takes only its Options and derives every RNG from opt.Seed, so the
// fan-out is embarrassingly parallel — and returns results in the
// order the ids were given. Unknown ids fail before anything runs.
// Because results are collected by index and every harness is
// deterministic for a fixed seed, RunAll's output is identical at any
// worker count.
//
// On harness error the first error in id order is returned along with
// the results that did succeed (failed slots are nil).
func RunAll(ids []string, opt Options) ([]*Result, error) {
	return RunAllWithHooks(ids, opt, RunHooks{})
}

// RunHooks observes the experiment fan-out. Hooks ride alongside
// Options rather than inside it because Options is a cache key (the
// shared-predictor map) and must stay comparable. Both hooks may be
// called concurrently from worker goroutines; nil hooks are skipped.
type RunHooks struct {
	// OnStart fires as a harness begins executing.
	OnStart func(id string)
	// OnDone fires when it finishes, with its wall time and error.
	OnDone func(id string, wall time.Duration, err error)
}

// runPriority orders the all-run schedule; lower values start first.
// Two rules set it:
//
//   - Critical path first: fig9 holds the longest strictly serial chain
//     of the sweep — its depth-4 predictor fit is thousands of
//     sequential Adam steps that no other core can share — so it starts
//     before everything else and the other harnesses pack around it. A
//     late start leaves that fit running alone at the end of the sweep
//     while the other cores idle.
//   - Memo supersets before subsets: tab5 trains every dataset's
//     vanilla + adaptive-θ ISU pair, which fig16's θ sweeps then extend
//     with only their off-adaptive cells, and cora's single θ=0.8 row
//     is covered entirely by fig16's Cora sweep. With the sim memo warm
//     the narrow sweeps collapse to their unshared cells instead of
//     paying for the shared ones first. (A harness that reaches a cell
//     another one is still computing waits for it and counts a hit, so
//     the Sim counters do not depend on the order either way.)
//
// Scheduling is invisible in the output — results are collected by
// caller index and every harness derives its RNGs from Options alone.
// Unlisted ids keep their caller order (0).
var runPriority = map[string]int{
	"fig9":  -4, // longest serial chain: the depth-4 predictor fit
	"tab5":  -3, // broadest gcn grid: every eval dataset × (vanilla, adaptive-θ ISU)
	"cora":  -2, // pays the Cora vanilla + θ=0.8 cells (tab5's grid has no Cora)
	"fig16": -1, // θ grids then add only their off-adaptive cells
}

// startOrder returns the caller indices of ids in the order their
// harnesses start: by runPriority, ties in caller order.
func startOrder(ids []string) []int {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return runPriority[ids[order[a]]] < runPriority[ids[order[b]]]
	})
	return order
}

// RunAllWithHooks is RunAll with per-experiment lifecycle callbacks —
// the CLI's -progress reporting and run-manifest timings hang off it.
func RunAllWithHooks(ids []string, opt Options, hooks RunHooks) ([]*Result, error) {
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
				id, strings.Join(IDs(), ", "))
		}
	}
	// schedule[k] is the caller index of the k-th harness to start.
	schedule := startOrder(ids)
	type outcome struct {
		res *Result
		err error
	}
	outs := parallel.Map(len(ids), func(k int) outcome {
		id := ids[schedule[k]]
		if hooks.OnStart != nil {
			hooks.OnStart(id)
		}
		var t0 time.Time
		if hooks.OnDone != nil {
			t0 = time.Now()
		}
		res, err := Run(id, opt)
		if hooks.OnDone != nil {
			hooks.OnDone(id, time.Since(t0), err)
		}
		return outcome{res: res, err: err}
	})
	results := make([]*Result, len(ids))
	errs := make([]error, len(ids))
	for k, o := range outs {
		results[schedule[k]] = o.res
		errs[schedule[k]] = o.err
	}
	var firstErr error
	for i, err := range errs {
		if err != nil {
			firstErr = fmt.Errorf("experiments: %s: %w", ids[i], err)
			break
		}
	}
	return results, firstErr
}

// fmtX formats a speedup/ratio like the paper ("12.3x").
func fmtX(v float64) string { return fmt.Sprintf("%.1fx", v) }

// fmtPct formats a fraction as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// fmtF formats a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }
