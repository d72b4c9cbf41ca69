package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gopim"
	"gopim/internal/bench"
	"gopim/internal/experiments"
)

// benchCmd runs the regression bench suite (`gopim bench`): it
// executes the workload matrix, writes BENCH_<label>.json, and prints
// a per-configuration summary. With a positional BENCH file argument
// it skips the run and reports on the existing file instead. The
// default suite's file is byte-identical to BENCH_baseline.json unless
// a Sim-clock value moved.
func benchCmd(args []string, seed int64, fast bool, format experiments.Format) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	label := fs.String("label", "local", "bench label; output goes to BENCH_<label>.json")
	expList := fs.String("experiments", "", "comma-separated experiment ids (default: the fig4-fig7 smoke set)")
	dsList := fs.String("datasets", "", "comma-separated sim-matrix datasets (default: ddi,Cora)")
	full := fs.Bool("full", false, "full suite: every experiment id and every catalog dataset")
	dir := fs.String("dir", ".", "directory for the BENCH file")
	attrib := fs.Bool("attrib", false, "also print the stage-level attribution report")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gopim [flags] bench [-label L] [-attrib] [BENCH_x.json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("bench: at most one positional BENCH file, got %d", fs.NArg())
	}
	if fs.NArg() == 1 {
		// Report-only mode: attribute an existing file, no run.
		f, err := bench.Load(fs.Arg(0))
		if err != nil {
			return err
		}
		return renderAttribution(f, fs.Arg(0), format)
	}

	cfg := bench.Config{
		Seed: seed,
		Fast: fast || !*full, // the smoke suite is always fast-scale
	}
	if *expList != "" {
		cfg.Experiments = splitCSV(*expList)
	} else if *full {
		cfg.Experiments = experiments.IDs()
	}
	if *dsList != "" {
		cfg.Datasets = splitCSV(*dsList)
	} else if *full {
		cfg.Datasets = datasetNames()
	}

	f, err := bench.Run(cfg)
	if err != nil {
		return err
	}
	path := filepath.Join(*dir, bench.FileName(*label))
	if err := f.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("bench %s: seed=%d fast=%v -> %s\n", *label, f.Suite.Seed, f.Suite.Fast, path)
	for _, c := range f.Configs {
		fmt.Printf("  %-12s %d sim metric values\n", c.Name, len(c.SimMetrics))
	}
	if *attrib {
		return renderAttribution(f, path, format)
	}
	return nil
}

// renderAttribution prints the stage-level attribution table for the
// richest configuration of the BENCH file at path.
func renderAttribution(f *bench.File, path string, format experiments.Format) error {
	cfg, err := bench.AttributionConfig(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	res, err := bench.Attribution(cfg.SimMetrics)
	if err != nil {
		return err
	}
	res.Title += fmt.Sprintf(" (%s, config %s)", filepath.Base(path), cfg.Name)
	return res.RenderAs(os.Stdout, format)
}

// splitCSV splits a comma-separated list, trimming blanks.
func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// datasetNames lists the full catalog for -full runs.
func datasetNames() []string {
	var out []string
	for _, d := range gopim.Datasets() {
		out = append(out, d.Name)
	}
	return out
}
