package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// twoFiles builds a matched old/new pair with one config each.
func twoFiles(oldMetrics, newMetrics []MetricValue) (*File, *File) {
	mk := func(label string, ms []MetricValue) *File {
		return &File{
			Schema: Schema, Label: label,
			Configs: []ConfigResult{{Name: "sim-matrix", SimMetrics: ms}},
		}
	}
	return mk("old", oldMetrics), mk("new", newMetrics)
}

func sim(name, field, value string) MetricValue {
	return MetricValue{Name: name, Clock: "sim", Kind: "distribution", Field: field, Value: value}
}

func findDiff(t *testing.T, r *Report, key string) MetricDiff {
	t.Helper()
	for _, d := range r.Diffs {
		if d.Key == key {
			return d
		}
	}
	t.Fatalf("no diff for key %q in %+v", key, r.Diffs)
	return MetricDiff{}
}

func TestDiffClassification(t *testing.T) {
	old, new := twoFiles(
		[]MetricValue{
			sim("accel.makespan_ns{dataset=ddi,model=GoPIM}", "max", "1000"),
			sim("accel.makespan_ns{dataset=ddi,model=GoPIM}", "count", "2"),
			sim("accel.energy_pj", "max", "500"),
			sim("experiments.predictor_cache_hits", "count", "4"),
			sim("gone.metric", "count", "1"),
		},
		[]MetricValue{
			sim("accel.makespan_ns{dataset=ddi,model=GoPIM}", "max", "1500"), // slower
			sim("accel.makespan_ns{dataset=ddi,model=GoPIM}", "count", "3"),  // drifted count
			sim("accel.energy_pj", "max", "400"),                             // less energy
			sim("experiments.predictor_cache_hits", "count", "8"),            // more hits
			sim("fresh.metric", "count", "1"),
		},
	)
	r := Diff(old, new)
	for key, want := range map[string]Class{
		"accel.makespan_ns{dataset=ddi,model=GoPIM} max":   Regressed, // lower-is-better went up
		"accel.makespan_ns{dataset=ddi,model=GoPIM} count": Regressed, // neutral drifted
		"accel.energy_pj max":                              Improved,  // lower-is-better went down
		"experiments.predictor_cache_hits count":           Regressed, // count fields are neutral even for "hits"
		"gone.metric count":                                Removed,
		"fresh.metric count":                               Added,
	} {
		if got := findDiff(t, r, key).Class; got != want {
			t.Errorf("%s: class %s, want %s", key, got, want)
		}
	}
	if !findDiff(t, r, "accel.makespan_ns{dataset=ddi,model=GoPIM} max").Strict {
		t.Error("sim metric not strict")
	}
	// Three strict regressions plus the vanished and the new metric.
	if got := r.Failures(); got != 5 {
		t.Errorf("Failures() = %d, want 5 (3 regressed, 1 removed, 1 added)", got)
	}
	// The 50% slowdown must carry its magnitude.
	if d := findDiff(t, r, "accel.makespan_ns{dataset=ddi,model=GoPIM} max").RelDelta; math.Abs(d-0.5) > 1e-12 {
		t.Errorf("slowdown RelDelta = %v, want 0.5", d)
	}
}

func TestDiffIdenticalFilesUnchanged(t *testing.T) {
	ms := []MetricValue{
		sim("accel.makespan_ns", "max", "279918.9689221488"),
		sim("pipeline.simulations", "count", "12"),
	}
	old, new := twoFiles(ms, append([]MetricValue(nil), ms...))
	r := Diff(old, new)
	if got := r.Failures(); got != 0 {
		t.Fatalf("identical files: %d failures", got)
	}
	for _, d := range r.Diffs {
		if d.Strict && d.Class != Unchanged {
			t.Errorf("%s: %s, want unchanged", d.Key, d.Class)
		}
	}
}

func TestDiffConfigMismatchReported(t *testing.T) {
	old, new := twoFiles(
		[]MetricValue{sim("m", "count", "1")},
		[]MetricValue{sim("m", "count", "1")},
	)
	new.Configs = append(new.Configs, ConfigResult{
		Name:       "experiments",
		SimMetrics: []MetricValue{sim("m2", "count", "5"), sim("m3", "max", "7")},
	})
	r := Diff(old, new)
	if got := findDiff(t, r, "m2 count").Class; got != Added {
		t.Errorf("new-config metric class = %s, want added", got)
	}
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, `"experiments"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("config mismatch not noted: %v", r.Notes)
	}
	// A config in only one file fails the gate either way round, one
	// failure per strict value it carries.
	if got := r.Failures(); got != 2 {
		t.Errorf("config only in new: %d failures, want 2", got)
	}
	if got := Diff(new, old).Failures(); got != 2 {
		t.Errorf("config only in old: %d failures, want 2", got)
	}
}

func TestReportResultRendersAllFormats(t *testing.T) {
	old, new := twoFiles(
		[]MetricValue{sim("accel.makespan_ns", "max", "1000")},
		[]MetricValue{sim("accel.makespan_ns", "max", "2000")},
	)
	r := Diff(old, new)
	res := r.Result(false)
	for _, render := range []func() error{
		func() error { var b bytes.Buffer; return res.Render(&b) },
		func() error { var b bytes.Buffer; return res.RenderCSV(&b) },
		func() error { var b bytes.Buffer; return res.RenderMarkdown(&b) },
	} {
		if err := render(); err != nil {
			t.Fatal(err)
		}
	}
	var b bytes.Buffer
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "regressed") {
		t.Errorf("rendered diff missing regression row:\n%s", b.String())
	}
	if !strings.Contains(r.Summary(), "1 regressed (1 strict)") {
		t.Errorf("summary = %q", r.Summary())
	}
}
