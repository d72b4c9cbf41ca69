package bench

import (
	"path/filepath"
	"slices"
	"testing"

	"gopim/internal/accel"
	"gopim/internal/obs"
	"gopim/internal/parallel"
)

// tinyConfig is the cheapest meaningful suite: one experiment, one
// dataset, two models.
func tinyConfig(label string) Config {
	return Config{
		Label: label, Seed: 7, Fast: true,
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
	a, err := Run(tinyConfig("a"))
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(8)
	b, err := Run(tinyConfig("b"))
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
	cfg := tinyConfig("x")
	cfg.Experiments = []string{"no-such-experiment"}
	if _, err := Run(cfg); err == nil {
		t.Error("unknown experiment id accepted")
	}
	cfg = tinyConfig("x")
	cfg.Datasets = []string{"no-such-dataset"}
	if _, err := Run(cfg); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	resetObs(t)
	f, err := Run(tinyConfig("roundtrip"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), FileName(f.Label))
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Label != "roundtrip" {
		t.Fatalf("loaded schema/label = %d/%q", got.Schema, got.Label)
	}
	if got.Manifest == nil || got.Manifest.Format != "bench" {
		t.Fatal("manifest not round-tripped")
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
	if err := (&File{Schema: Schema + 1, Label: "future"}).WriteFile(path); err != nil {
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
