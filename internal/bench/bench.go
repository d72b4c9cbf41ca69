// Package bench is GoPIM's Sim-clock regression gate. It runs a
// standard workload suite — a {dataset, model} simulation matrix plus a
// set of experiment harnesses — once per group and captures each
// group's full Sim-clock metric snapshot from the obs registry. That
// snapshot is a pure function of the suite and seed (byte-identical at
// any worker count), so it diffs strictly across runs, machines and
// commits. Wall time is not gated here: perfbench (perfbench/run.sh)
// measures it in cold child processes, in alternating pairs.
//
// Run writes a versioned BENCH_<label>.json; Diff (diff.go) compares
// two such files (or raw -metrics JSON snapshots) metric-by-metric and
// classifies every value as improved, regressed, unchanged, added or
// removed; Attribution (attrib.go) pivots the per-{dataset, model}
// accelerator series into a "where did the time and energy go" table.
// The gopim CLI surfaces all three as `gopim bench` and `gopim diff`.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gopim/internal/accel"
	"gopim/internal/experiments"
	"gopim/internal/graphgen"
	"gopim/internal/obs"
	"gopim/internal/parallel"
)

// Schema is the BENCH file format version; bump it on any breaking
// change to File so diffs fail loudly instead of misreading old files.
// Version 3 dropped the wall and allocation stats and the per-worker
// configurations.
const Schema = 3

// Config tunes one bench-suite run. The zero value of every field
// selects the smoke-scale default, so Config{} is the CI suite.
type Config struct {
	// Label names the output file (BENCH_<label>.json).
	Label string
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
	// Args is recorded in the run manifest for provenance.
	Args []string
}

// SmokeExperiments is the default experiment set: the cheap motivation
// harnesses that exercise accel, pipeline and mapping end to end.
func SmokeExperiments() []string { return []string{"fig4", "fig5", "fig6", "fig7"} }

// SmokeDatasets is the default simulation-matrix dataset set.
func SmokeDatasets() []string { return []string{"ddi", "Cora"} }

func (c *Config) defaults() {
	if c.Label == "" {
		c.Label = "local"
	}
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

// Suite records the workload definition inside the BENCH file, so a
// diff can tell when two files measured different things.
type Suite struct {
	Seed        int64    `json:"seed"`
	Fast        bool     `json:"fast"`
	Experiments []string `json:"experiments"`
	Datasets    []string `json:"datasets"`
	Models      []string `json:"models"`
}

// MetricValue is one flattened metric field from a registry snapshot.
// Values keep the registry's deterministic string rendering; the diff
// engine parses them back to floats when both sides are numeric.
type MetricValue struct {
	Name  string `json:"name"`
	Clock string `json:"clock"`
	Kind  string `json:"kind"`
	Field string `json:"field"`
	Value string `json:"value"`
}

// ConfigResult is one workload group's outcome.
type ConfigResult struct {
	// Name identifies the group ("sim-matrix"); diffs match
	// configurations by this name.
	Name string `json:"name"`
	// SimMetrics is the group's flattened Sim-clock snapshot (strictly
	// diffable).
	SimMetrics []MetricValue `json:"sim_metrics"`
}

// File is the versioned on-disk BENCH format.
type File struct {
	Schema   int            `json:"schema"`
	Label    string         `json:"label"`
	Suite    Suite          `json:"suite"`
	Manifest *obs.Manifest  `json:"manifest,omitempty"`
	Configs  []ConfigResult `json:"configs"`
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
				Name: s.Name, Clock: s.Clock.String(), Kind: s.Kind,
				Field: f.Key, Value: f.Value,
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
		Label:  cfg.Label,
		Suite: Suite{
			Seed: cfg.Seed, Fast: cfg.Fast, Experiments: cfg.Experiments,
			Datasets: cfg.Datasets, Models: models,
		},
		Manifest: obs.NewManifest(cfg.Args),
	}
	f.Manifest.Seed = cfg.Seed
	f.Manifest.Workers = parallel.Workers()
	f.Manifest.Fast = cfg.Fast
	f.Manifest.Format = "bench"

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
		t0 := time.Now()
		if err := group.body(); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", group.name, err)
		}
		f.Manifest.Record(group.name, time.Since(t0), nil)
		f.Configs = append(f.Configs, ConfigResult{
			Name: group.name, SimMetrics: flattenSim(obs.Default()),
		})
	}
	f.Manifest.Finish()
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

// Load reads a comparable file: either a BENCH_*.json written by
// WriteFile, or a raw -metrics JSON snapshot (the array the registry's
// WriteJSON emits), which loads as a single pseudo-configuration named
// "snapshot" so bench runs and ad-hoc metric dumps diff uniformly.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimLeft(string(data), " \t\r\n")
	if strings.HasPrefix(trimmed, "[") {
		return loadRawSnapshot(path, data)
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

// loadRawSnapshot converts a registry WriteJSON array into File form.
func loadRawSnapshot(path string, data []byte) (*File, error) {
	var raw []struct {
		Name   string            `json:"name"`
		Clock  string            `json:"clock"`
		Kind   string            `json:"kind"`
		Values map[string]string `json:"values"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	var metrics []MetricValue
	for _, m := range raw {
		fields := make([]string, 0, len(m.Values))
		for k := range m.Values {
			fields = append(fields, k)
		}
		sort.Strings(fields)
		for _, k := range fields {
			metrics = append(metrics, MetricValue{
				Name: m.Name, Clock: m.Clock, Kind: m.Kind,
				Field: k, Value: m.Values[k],
			})
		}
	}
	return &File{
		Schema: Schema,
		Label:  path,
		Configs: []ConfigResult{{
			Name: "snapshot", SimMetrics: metrics,
		}},
	}, nil
}
