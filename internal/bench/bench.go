// Package bench is GoPIM's Sim-clock regression gate. It runs a
// standard workload suite — a {dataset, model} simulation matrix plus a
// set of experiment harnesses — once per group and captures each
// group's full Sim-clock metric snapshot from the obs registry. A BENCH
// file holds nothing else, so its bytes are a pure function of the
// suite and seed (identical at any worker count, on any run of the same
// code). The checked-in BENCH_baseline.json is therefore a golden file:
// TestBaselineGolden rebuilds it and fails on any byte that moved,
// naming each changed, added or removed value, and `-update` rewrites
// it. Wall time is not gated here: perfbench (perfbench/run.sh)
// measures it in cold child processes, in alternating pairs.
//
// Run builds a versioned BENCH file; Attribution (attrib.go) pivots the
// per-{dataset, model} accelerator series into a "where did the time
// and energy go" table. The gopim CLI surfaces both as `gopim bench`.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"gopim/internal/accel"
	"gopim/internal/experiments"
	"gopim/internal/graphgen"
	"gopim/internal/obs"
	"gopim/internal/parallel"
)

// Schema is the BENCH file format version; bump it on any breaking
// change to File so Load fails loudly instead of misreading old files.
// Version 3 dropped the wall and allocation stats and the per-worker
// configurations; version 4 dropped the label, the run manifest and the
// per-value clock (always "sim"), so the file depends only on the suite.
const Schema = 4

// Config tunes one bench-suite run. The zero value of each list selects
// the smoke-scale default; the CI suite is Config{Seed: 1, Fast: true}.
type Config struct {
	// Seed drives all synthetic graph generation.
	Seed int64
	// Fast shrinks the experiment workloads (experiments.Options.Fast).
	Fast bool
	// Experiments lists experiment harness ids (default: the fig4–fig7
	// smoke set the determinism tests pin).
	Experiments []string
	// Datasets and Models define the direct simulation matrix (default:
	// ddi and Cora × the six Fig. 13 baselines).
	Datasets []string
	Models   []accel.Kind
}

// SmokeExperiments is the default experiment set: the cheap motivation
// harnesses that exercise accel, pipeline and mapping end to end.
func SmokeExperiments() []string { return []string{"fig4", "fig5", "fig6", "fig7"} }

// SmokeDatasets is the default simulation-matrix dataset set.
func SmokeDatasets() []string { return []string{"ddi", "Cora"} }

func (c *Config) defaults() {
	if len(c.Experiments) == 0 {
		c.Experiments = SmokeExperiments()
	}
	if len(c.Datasets) == 0 {
		c.Datasets = SmokeDatasets()
	}
	if len(c.Models) == 0 {
		c.Models = accel.AllBaselines()
	}
}

// Suite records the workload definition inside the BENCH file, so two
// files that measured different things never compare equal.
type Suite struct {
	Seed        int64    `json:"seed"`
	Fast        bool     `json:"fast"`
	Experiments []string `json:"experiments"`
	Datasets    []string `json:"datasets"`
	Models      []string `json:"models"`
}

// MetricValue is one flattened Sim-clock metric field from a registry
// snapshot. Values keep the registry's deterministic string rendering.
type MetricValue struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Field string `json:"field"`
	Value string `json:"value"`
}

// ConfigResult is one workload group's outcome.
type ConfigResult struct {
	// Name identifies the group ("sim-matrix").
	Name string `json:"name"`
	// SimMetrics is the group's flattened Sim-clock snapshot.
	SimMetrics []MetricValue `json:"sim_metrics"`
}

// File is the versioned on-disk BENCH format.
type File struct {
	Schema  int            `json:"schema"`
	Suite   Suite          `json:"suite"`
	Configs []ConfigResult `json:"configs"`
}

// FileName returns the canonical file name for a label, sanitised to
// [A-Za-z0-9._-] so labels can't escape the output directory.
func FileName(label string) string {
	s := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '-'
	}, label)
	if s == "" {
		s = "local"
	}
	return "BENCH_" + s + ".json"
}

// flattenSim renders the registry's Sim-clock snapshot as flat
// metric/field/value triples, preserving the registry's deterministic
// name and field ordering. Metrics with zero observations are dropped:
// registration is process-global and permanent, so without the filter
// a configuration's snapshot would include every series earlier
// configurations happened to register, and the same configuration
// would render differently depending on what ran before it.
func flattenSim(reg *obs.Registry) []MetricValue {
	var out []MetricValue
	for _, s := range reg.Snapshot(obs.Sim) {
		if len(s.Fields) > 0 && s.Fields[0].Key == "count" && s.Fields[0].Value == "0" {
			continue
		}
		for _, f := range s.Fields {
			out = append(out, MetricValue{
				Name: s.Name, Kind: s.Kind, Field: f.Key, Value: f.Value,
			})
		}
	}
	return out
}

// Run executes the suite and returns the BENCH file content.
//
// Run owns process-global state for its duration: it enables obs
// recording and resets the default registry before each group, so each
// snapshot covers exactly one cold pass, restoring the previous obs
// enablement on return. The suite runs at the ambient worker count
// (parallel.SetWorkers); the snapshots do not depend on it. Don't run
// it concurrently with other instrumented work.
func Run(cfg Config) (*File, error) {
	cfg.defaults()

	// Validate the whole matrix before the first (possibly long) run.
	for _, id := range cfg.Experiments {
		found := false
		for _, have := range experiments.IDs() {
			if id == have {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("bench: unknown experiment %q (have %s)",
				id, strings.Join(experiments.IDs(), ", "))
		}
	}
	datasets := make([]graphgen.Dataset, len(cfg.Datasets))
	for i, name := range cfg.Datasets {
		d, err := graphgen.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		datasets[i] = d
	}

	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(wasEnabled)

	models := make([]string, len(cfg.Models))
	for i, m := range cfg.Models {
		models[i] = m.String()
	}
	f := &File{
		Schema: Schema,
		Suite: Suite{
			Seed: cfg.Seed, Fast: cfg.Fast, Experiments: cfg.Experiments,
			Datasets: cfg.Datasets, Models: models,
		},
	}

	simMatrix := func() error {
		type pair struct {
			d graphgen.Dataset
			m accel.Kind
		}
		pairs := make([]pair, 0, len(datasets)*len(cfg.Models))
		for _, d := range datasets {
			for _, m := range cfg.Models {
				pairs = append(pairs, pair{d, m})
			}
		}
		parallel.Map(len(pairs), func(i int) struct{} {
			accel.Run(pairs[i].m, accel.Workload{Dataset: pairs[i].d, Seed: cfg.Seed})
			return struct{}{}
		})
		return nil
	}
	expSuite := func() error {
		_, err := experiments.RunAll(cfg.Experiments,
			experiments.Options{Seed: cfg.Seed, Fast: cfg.Fast})
		return err
	}

	for _, group := range []struct {
		name string
		body func() error
	}{{"sim-matrix", simMatrix}, {"experiments", expSuite}} {
		// Resetting the registry also clears the simmemo caches (its
		// OnReset hook), so the snapshot — hit/miss counters included —
		// covers exactly one cold pass of this group.
		obs.Default().Reset()
		if err := group.body(); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", group.name, err)
		}
		f.Configs = append(f.Configs, ConfigResult{
			Name: group.name, SimMetrics: flattenSim(obs.Default()),
		})
	}
	return f, nil
}

// WriteFile writes the BENCH file as indented JSON.
func (f *File) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a BENCH_*.json written by WriteFile.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("bench: %s: schema %d, this build reads %d (regenerate with `gopim bench`)",
			path, f.Schema, Schema)
	}
	return &f, nil
}
