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
// it skips the run and reports on the existing file instead.
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
		return renderAttribution(f, format)
	}

	cfg := bench.Config{
		Label: *label,
		Seed:  seed,
		Fast:  fast || !*full, // the smoke suite is always fast-scale
		Args:  os.Args[1:],
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
	fmt.Printf("bench %s: seed=%d fast=%v -> %s\n", f.Label, f.Suite.Seed, f.Suite.Fast, path)
	for _, c := range f.Configs {
		fmt.Printf("  %-12s %d sim metric values\n", c.Name, len(c.SimMetrics))
	}
	if *attrib {
		return renderAttribution(f, format)
	}
	return nil
}

// renderAttribution prints the stage-level attribution table for the
// richest configuration of a BENCH file.
func renderAttribution(f *bench.File, format experiments.Format) error {
	cfg, err := bench.AttributionConfig(f)
	if err != nil {
		return err
	}
	res, err := bench.Attribution(cfg.SimMetrics)
	if err != nil {
		return err
	}
	res.Title += fmt.Sprintf(" (%s, config %s)", f.Label, cfg.Name)
	return res.RenderAs(os.Stdout, format)
}

// diffCmd compares two BENCH files or raw -metrics snapshots
// (`gopim diff old new`) and returns the strict failure count (Sim
// values that moved, appeared or vanished) the caller turns into the
// exit status.
func diffCmd(args []string, format experiments.Format) (failures int, err error) {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	showAll := fs.Bool("all", false, "include unchanged metrics in the report")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gopim [flags] diff [-all] <old.json> <new.json>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() != 2 {
		return 0, fmt.Errorf("diff: want exactly two files (BENCH_*.json or -metrics *.json), got %d", fs.NArg())
	}
	oldF, err := bench.Load(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	newF, err := bench.Load(fs.Arg(1))
	if err != nil {
		return 0, err
	}
	rep := bench.Diff(oldF, newF)
	if err := rep.Result(*showAll).RenderAs(os.Stdout, format); err != nil {
		return 0, err
	}
	fmt.Println(rep.Summary())
	return rep.Failures(), nil
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
