// Command gopim regenerates the paper's evaluation tables and figures
// and runs ad-hoc accelerator comparisons.
//
// Usage:
//
//	gopim list                     list the regenerable experiments
//	gopim all                      regenerate every table and figure
//	gopim fig13 tab5 ...           regenerate specific artifacts
//	gopim compare <dataset>        run the six baselines on one dataset
//	gopim theta <dataset>          re-derive the adaptive θ (§VI-C)
//	gopim endurance <dataset>      ISU's array-lifetime effect
//	gopim churn <dataset>          stream seeded graph mutations through
//	                               the robustness loop: incremental
//	                               re-mapping, ISU plan refreshes, wear
//	                               retirement and degraded allocation
//	                               (see -churn-rate below)
//	gopim explain <dataset> [model]  critical-path bottleneck analysis:
//	                               which stage bounds the makespan, why,
//	                               and what ±1 replica would change
//	gopim bench -label L           run the Sim-clock bench suite and
//	                               write BENCH_L.json (the default suite
//	                               reproduces BENCH_baseline.json byte
//	                               for byte); -attrib adds the
//	                               stage-level attribution report
//	gopim serve -addr A            run the allocation-planning daemon
//	                               (POST /v1/plan; see DESIGN.md §13)
//
// Flags:
//
//	-seed N      random seed for synthetic graph generation (default 1)
//	-fast        shrink workloads for a quick smoke run
//	-format f    text, csv or markdown for experiment output
//	-workers N   worker-pool size for parallel kernels and the
//	             experiment fan-out (default: GOPIM_WORKERS env, else
//	             GOMAXPROCS); output is identical at any worker count
//
// Fault-injection flags (see DESIGN.md §Fault model; all off by
// default — a run without them is byte-identical to one before the
// fault layer existed):
//
//	-fault-rate p        stuck-at cell probability in [0,1]; 0 disables
//	-fault-seed N        seed for the per-crossbar fault streams
//	                     (default 1); output is a pure function of it
//	-fault-verify-max N  write-verify retry budget per row write
//	                     (default 8)
//
// Streaming-churn flags (see DESIGN.md §Streaming churn; all off by
// default, same byte-stability contract as the fault flags):
//
//	-churn-rate p        fraction of edges mutated per churn epoch in
//	                     [0,1]; 0 disables churn
//	-churn-seed N        seed for the per-epoch churn streams
//	                     (default 1); output is a pure function of it
//	-refresh-policy P    when the ISU plan is recomputed under drift:
//	                     eager, threshold or adaptive (default
//	                     threshold)
//
// Observability flags (see DESIGN.md §Observability):
//
//	-metrics f   write a text metrics snapshot on exit, wall metrics
//	             behind '#'
//	-trace-out f write wall-clock spans (and, for explain, the simulated
//	             schedule) as Chrome trace-event JSON — load in Perfetto
//	-manifest f  write the run manifest (default: derived from
//	             -metrics/-trace-out)
//	-progress    per-experiment start/done lines on stderr
//	-pprof addr  serve net/http/pprof, expvar and /debug/metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gopim"
	"gopim/internal/accel"
	"gopim/internal/churn"
	"gopim/internal/endurance"
	"gopim/internal/experiments"
	"gopim/internal/fault"
	"gopim/internal/gcn"
	"gopim/internal/tuner"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed for synthetic graph generation")
	fast := flag.Bool("fast", false, "shrink workloads for a quick smoke run")
	format := flag.String("format", "text", "output format: text, csv, markdown")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOPIM_WORKERS env, else GOMAXPROCS)")
	faultRate := flag.Float64("fault-rate", 0, "stuck-at cell fault probability in [0,1] (0 = faults off)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the deterministic fault streams")
	faultVerifyMax := flag.Int("fault-verify-max", fault.DefaultVerifyMax, "write-verify retry budget per row write")
	churnRate := flag.Float64("churn-rate", 0, "streaming-graph churn rate: fraction of edges mutated per epoch in [0,1] (0 = churn off)")
	churnSeed := flag.Int64("churn-seed", 1, "seed for the deterministic churn streams")
	refreshPolicy := flag.String("refresh-policy", "", "ISU plan refresh policy under churn: eager|threshold|adaptive (default threshold)")
	metricsPath := flag.String("metrics", "", "write a text metrics snapshot to this file on exit (wall metrics behind '#')")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (load in Perfetto)")
	manifestPath := flag.String("manifest", "", "write the run manifest to this file (default: derived from -metrics/-trace-out)")
	progress := flag.Bool("progress", false, "report per-experiment progress on stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof, expvar and /debug/metrics on this address (e.g. localhost:6060)")
	flag.Usage = usage
	flag.Parse()

	// Validate -format up front: under `gopim all` a typo must fail
	// before the first experiment runs, not after it.
	outFormat, err := experiments.ParseFormat(*format)
	if err != nil {
		fatal(err.Error())
	}
	gopim.SetWorkers(*workers)

	// Fault flags follow the GOPIM_WORKERS convention rather than the
	// -format one: invalid values warn (via the obs warn path and the
	// fault.flags_invalid counter) and fall back to safe defaults, so a
	// long sweep never dies on a typo'd knob after hours of simulation.
	faultModel := fault.FromFlags(*faultRate, *faultSeed, *faultVerifyMax)
	fault.SetDefault(faultModel)

	// Churn flags share that convention: a bad rate or policy warns,
	// bumps churn.flags_invalid and falls back (rate → 0, policy →
	// threshold) instead of aborting.
	churnCfg := churn.FromFlags(*churnRate, *churnSeed, *refreshPolicy)

	// Same principle for the observability outputs: open files and bind
	// the debug listener before any experiment runs.
	sess, err := startObsSession(obsFlags{
		metricsPath:  *metricsPath,
		tracePath:    *traceOut,
		manifestPath: *manifestPath,
		progress:     *progress,
		pprofAddr:    *pprofAddr,
	}, os.Args[1:])
	if err != nil {
		fatal(err.Error())
	}
	sess.setRunInfo(*seed, *format, *fast)
	if faultModel.Enabled() {
		cfg := faultModel.Config()
		sess.setFaultInfo(cfg.Rate, cfg.Seed, cfg.VerifyMax)
	}
	sess.setChurnInfo(churnCfg.Rate, churnCfg.Seed, string(churnCfg.Policy))

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	opt := gopim.ExperimentOptions{Seed: *seed, Fast: *fast}

	switch args[0] {
	case "list":
		for _, id := range gopim.Experiments() {
			fmt.Println(id)
		}
	case "all":
		runExperiments(sess, gopim.Experiments(), opt, outFormat)
	case "compare":
		if len(args) != 2 {
			fatal("usage: gopim compare <dataset>")
		}
		c, err := gopim.Compare(args[1], *seed)
		if err != nil {
			fatal(err.Error())
		}
		if err := c.Render(os.Stdout); err != nil {
			fatal(err.Error())
		}
	case "theta":
		if len(args) != 2 {
			fatal("usage: gopim theta <dataset>")
		}
		if err := searchTheta(os.Stdout, args[1], *seed, *fast); err != nil {
			fatal(err.Error())
		}
	case "endurance":
		if len(args) != 2 {
			fatal("usage: gopim endurance <dataset>")
		}
		if err := showEndurance(os.Stdout, args[1], *seed); err != nil {
			fatal(err.Error())
		}
	case "churn":
		if err := churnCmd(args[1:], *seed, *fast, churnCfg); err != nil {
			fatal(err.Error())
		}
	case "bench":
		if err := benchCmd(args[1:], *seed, *fast, outFormat); err != nil {
			fatal(err.Error())
		}
	case "explain":
		if err := explainCmd(sess, args[1:], *seed, outFormat); err != nil {
			fatal(err.Error())
		}
	case "serve":
		if err := serveCmd(sess, args[1:]); err != nil {
			fatal(err.Error())
		}
	default:
		runExperiments(sess, args, opt, outFormat)
	}
	if err := sess.finish(); err != nil {
		fatal(err.Error())
	}
}

// runExperiments fans the experiments out across the worker pool and
// renders the results in the order the ids were given, so output is
// byte-identical at any worker count.
func runExperiments(sess *obsSession, ids []string, opt gopim.ExperimentOptions, format experiments.Format) {
	onStart, onDone := sess.hooks()
	results, err := gopim.RunExperimentsWithHooks(ids, opt,
		gopim.ExperimentHooks{OnStart: onStart, OnDone: onDone})
	if err != nil {
		fatal(err.Error())
	}
	for _, res := range results {
		if err := res.RenderAs(os.Stdout, format); err != nil {
			fatal(err.Error())
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `gopim — GoPIM (HPCA 2025) reproduction driver

usage:
  gopim [flags] list
  gopim [flags] all
  gopim [flags] <experiment-id>...
  gopim [flags] compare <dataset>
  gopim [flags] theta <dataset>
  gopim [flags] endurance <dataset>
  gopim [flags] bench [-label L] [-attrib] [BENCH_x.json]
  gopim [flags] explain [-mb N] [-json] [-no-sensitivity] [-gantt] <dataset> [model]
  gopim [flags] churn [-epochs N] [-wear-days D] <dataset>
  gopim [flags] serve [-addr A] [-serve-workers N] [-queue N] [-cache N]

flags:
`)
	flag.PrintDefaults()
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "gopim:", msg)
	os.Exit(1)
}

// searchTheta re-derives the adaptive update threshold for a dataset.
func searchTheta(w io.Writer, dataset string, seed int64, fast bool) error {
	d, err := gopim.DatasetByName(dataset)
	if err != nil {
		return err
	}
	maxV, epochs := 900, 40
	if fast {
		maxV, epochs = 300, 15
	}
	inst := d.Synthesize(seed, maxV)
	res := tuner.SearchTheta(inst, tuner.Config{
		Thetas:      []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		MaxLoss:     0.01,
		Train:       gcn.Config{Epochs: epochs, Seed: seed, LR: 0.005, Dropout: 0},
		StalePeriod: epochs / 5,
		// Same content-key convention as the experiments' instance
		// cache: the sweep's θ=1 baseline and any matching experiment
		// run share one memoized training.
		InstanceKey: fmt.Sprintf("%+v|%d|%d", d, seed, maxV),
	})
	fmt.Fprintf(w, "θ search on %s (baseline accuracy %.2f%%):\n", dataset, res.Baseline*100)
	for _, p := range res.Points {
		fmt.Fprintf(w, "  θ=%.0f%%  accuracy %6.2f%%  rows rewritten/epoch %5.1f%%\n",
			p.Theta*100, p.Accuracy*100, p.UpdatedRowFraction*100)
	}
	fmt.Fprintf(w, "chosen θ: %.0f%% (paper's density rule would pick %.0f%%)\n",
		res.Chosen*100, d.AdaptiveTheta()*100)
	return nil
}

// showEndurance reports ISU's array-lifetime effect for a dataset.
func showEndurance(w io.Writer, dataset string, seed int64) error {
	d, err := gopim.DatasetByName(dataset)
	if err != nil {
		return err
	}
	wl := gopim.Workload{Dataset: d, Seed: seed}
	r := gopim.Simulate(gopim.GoPIM, wl)
	plan := accel.ISUPlan(wl)
	// Back-to-back training runs at the simulated epoch makespan — the
	// worst-case wear scenario.
	const epochsPerRun = 200
	runsPerDay := 86400e9 / (r.MakespanNS * epochsPerRun)
	prof := endurance.Profile{
		WritesPerVertexPerEpoch: 1,
		EpochsPerRun:            epochsPerRun,
		RunsPerDay:              runsPerDay,
	}
	rep := endurance.Compare(prof, plan)
	fmt.Fprintf(w, "endurance on %s (θ=%.0f%%, stale period %d, %.0f back-to-back runs/day):\n",
		dataset, plan.Theta*100, plan.StalePeriod, runsPerDay)
	fmt.Fprintf(w, "  full updating:        hottest rows last %10.0f training runs (%.1f days)\n",
		endurance.ReRAMWriteLimit/epochsPerRun, rep.FullDays)
	fmt.Fprintf(w, "  ISU important rows:   %10.0f training runs (%.1f days)\n",
		endurance.ReRAMWriteLimit/epochsPerRun, rep.ImportantDays)
	fmt.Fprintf(w, "  ISU unimportant rows: %10.0f training runs (%.1f days, %.0fx longer)\n",
		endurance.ReRAMWriteLimit/epochsPerRun*float64(plan.StalePeriod),
		rep.UnimportantDays, rep.UnimportantDays/rep.FullDays)
	fmt.Fprintf(w, "  mean wear vs full:    %.1f%%\n", rep.WearRatio*100)
	fmt.Fprintf(w, "  (SRAM weight manager outlasts ReRAM by %.0e at equal traffic — §IV-A)\n",
		endurance.SRAMAdvantage())
	return nil
}
