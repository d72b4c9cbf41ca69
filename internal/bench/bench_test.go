package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gopim/internal/accel"
	"gopim/internal/obs"
	"gopim/internal/parallel"
)

var update = flag.Bool("update", false, "rewrite "+baselinePath+" from the default suite")

// baselinePath is the checked-in golden BENCH file of the default
// suite (what `gopim bench` runs).
const baselinePath = "../../BENCH_baseline.json"

// tinyConfig is the cheapest meaningful suite: one experiment, one
// dataset, two models.
func tinyConfig() Config {
	return Config{
		Seed: 7, Fast: true,
		Experiments: []string{"fig5"},
		Datasets:    []string{"ddi"},
		Models:      []accel.Kind{accel.Serial, accel.GoPIM},
	}
}

// resetObs restores the global state Run mutates.
func resetObs(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().Reset()
	})
}

// The harness's core promise: two runs of the same suite in one
// process produce config-by-config identical Sim metrics, so the
// registry reset before each group leaves nothing behind that moves a
// snapshot — and the second run, at a different worker count, shows
// the snapshots don't depend on it.
func TestRunSimMetricsDeterministic(t *testing.T) {
	resetObs(t)
	t.Cleanup(func() { parallel.SetWorkers(0) })
	parallel.SetWorkers(1)
	a, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(8)
	b, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Configs) != 2 || a.Configs[0].Name != "sim-matrix" || a.Configs[1].Name != "experiments" {
		t.Fatalf("got configs %+v, want sim-matrix and experiments", a.Configs)
	}
	if len(b.Configs) != len(a.Configs) {
		t.Fatalf("config count differs: %d vs %d", len(a.Configs), len(b.Configs))
	}
	for i := range a.Configs {
		ca, cb := a.Configs[i], b.Configs[i]
		if ca.Name != cb.Name {
			t.Fatalf("config order differs: %q vs %q", ca.Name, cb.Name)
		}
		if len(ca.SimMetrics) == 0 {
			t.Errorf("%s: empty Sim snapshot", ca.Name)
		}
		if !slices.Equal(ca.SimMetrics, cb.SimMetrics) {
			t.Errorf("%s: Sim metrics differ between 1 and 8 workers", ca.Name)
		}
	}
}

func TestRunRejectsUnknownWorkloads(t *testing.T) {
	resetObs(t)
	cfg := tinyConfig()
	cfg.Experiments = []string{"no-such-experiment"}
	if _, err := Run(cfg); err == nil {
		t.Error("unknown experiment id accepted")
	}
	cfg = tinyConfig()
	cfg.Datasets = []string{"no-such-dataset"}
	if _, err := Run(cfg); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	resetObs(t)
	f, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), FileName("roundtrip"))
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Suite.Seed != 7 || !got.Suite.Fast {
		t.Fatalf("loaded schema %d, suite %+v", got.Schema, got.Suite)
	}
	if len(got.Configs) != len(f.Configs) {
		t.Fatalf("configs %d != %d", len(got.Configs), len(f.Configs))
	}
	for i := range f.Configs {
		if !slices.Equal(got.Configs[i].SimMetrics, f.Configs[i].SimMetrics) {
			t.Errorf("%s: metrics changed over the round trip", f.Configs[i].Name)
		}
	}
}

func TestLoadRejectsFutureSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_future.json")
	if err := (&File{Schema: Schema + 1}).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// WriteFile doesn't validate (it writes what Run built); Load must.
	if _, err := Load(path); err == nil {
		t.Error("future schema accepted")
	}
}

func TestFileName(t *testing.T) {
	for in, want := range map[string]string{
		"a":       "BENCH_a.json",
		"v1.2_rc": "BENCH_v1.2_rc.json",
		"../evil": "BENCH_..-evil.json",
		"sp ace":  "BENCH_sp-ace.json",
		"":        "BENCH_local.json",
	} {
		if got := FileName(in); got != want {
			t.Errorf("FileName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBaselineGolden is the Sim-clock gate: the default suite must
// rebuild BENCH_baseline.json byte for byte. A value that moved either
// way, appeared or vanished fails the test and is named. A PR that moves
// Sim numbers on purpose refreshes the file with
//
//	go test ./internal/bench -run TestBaselineGolden -update
//
// The values are exact float renderings, so like the serve goldens they
// hold only where the compiler fuses no multiply-add (not on arm64 yet;
// ROADMAP item 1).
func TestBaselineGolden(t *testing.T) {
	resetObs(t)
	f, err := Run(Config{Seed: 1, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := f.WriteFile(baselinePath); err != nil {
			t.Fatal(err)
		}
		return
	}
	gotPath := filepath.Join(t.TempDir(), FileName("got"))
	if err := f.WriteFile(gotPath); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var old File
	if err := json.Unmarshal(want, &old); err != nil {
		t.Fatalf("%s: %v (rerun with -update to refresh)", baselinePath, err)
	}
	if moves := valueMoves(&old, f); len(moves) > 0 {
		t.Fatalf("%s: %d Sim value(s) moved (config name field: old → new); "+
			"if on purpose, rerun with -update:\n%s", baselinePath, len(moves), strings.Join(moves, "\n"))
	}
	t.Fatalf("%s differs outside the metric values; rerun with -update if on purpose:\n%s",
		baselinePath, firstDiffLine(want, got))
}

// mvKey addresses one value of a BENCH file.
type mvKey struct{ config, name, field string }

// valueMoves lists every value that differs between two BENCH files as
// "config name field: old → new", with "(none)" on the side that lacks
// it: first the old file's values in its order, then the added ones.
func valueMoves(old, new *File) []string {
	index := func(f *File) (map[mvKey]string, []mvKey) {
		vals := map[mvKey]string{}
		var order []mvKey
		for _, c := range f.Configs {
			for _, m := range c.SimMetrics {
				k := mvKey{c.Name, m.Name, m.Field}
				vals[k] = m.Value
				order = append(order, k)
			}
		}
		return vals, order
	}
	oldVals, oldOrder := index(old)
	newVals, newOrder := index(new)
	line := func(k mvKey, o, n string) string {
		return fmt.Sprintf("%s %s %s: %s → %s", k.config, k.name, k.field, o, n)
	}
	var out []string
	for _, k := range oldOrder {
		if n, ok := newVals[k]; !ok {
			out = append(out, line(k, oldVals[k], "(none)"))
		} else if n != oldVals[k] {
			out = append(out, line(k, oldVals[k], n))
		}
	}
	for _, k := range newOrder {
		if _, ok := oldVals[k]; !ok {
			out = append(out, line(k, "(none)", newVals[k]))
		}
	}
	return out
}

// firstDiffLine reports the first line at which want and got differ.
func firstDiffLine(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "no differing line"
}

// The gate catches moves in both directions, not only "worse" ones: a
// halved makespan, a raised count, a removed and an added value are
// each named, and an unchanged copy lists nothing.
func TestValueMovesNamesEveryMove(t *testing.T) {
	const makespan = "accel.makespan_ns{dataset=Cora,model=GoPIM-Vanilla}"
	mk := func(ms ...MetricValue) *File {
		return &File{Schema: Schema, Configs: []ConfigResult{{Name: "sim-matrix", SimMetrics: ms}}}
	}
	old := mk(sim(makespan, "count", "1"), sim(makespan, "max", "4e8"),
		sim("pipeline.simulations", "count", "12"))
	if moves := valueMoves(old, old); len(moves) != 0 {
		t.Fatalf("identical files: %q", moves)
	}
	new := mk(sim(makespan, "count", "2"), sim(makespan, "max", "2e8"),
		sim("trace.events", "count", "9"))
	want := []string{
		"sim-matrix " + makespan + " count: 1 → 2",
		"sim-matrix " + makespan + " max: 4e8 → 2e8",
		"sim-matrix pipeline.simulations count: 12 → (none)",
		"sim-matrix trace.events count: (none) → 9",
	}
	if got := valueMoves(old, new); !slices.Equal(got, want) {
		t.Errorf("valueMoves =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
