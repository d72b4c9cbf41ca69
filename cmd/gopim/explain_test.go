package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gopim"
	"gopim/internal/accel"
	"gopim/internal/experiments"
	"gopim/internal/explain"
	"gopim/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// explainOutput renders the full `gopim explain` report (table, notes,
// marked gantt) for ddi/GoPIM the way explainCmd would.
func explainOutput(t *testing.T, jsonOut bool) []byte {
	t.Helper()
	d, err := gopim.DatasetByName("ddi")
	if err != nil {
		t.Fatal(err)
	}
	r := gopim.Simulate(gopim.GoPIM, gopim.Workload{Dataset: d, Seed: 1})
	in := accel.TraceInput(r)
	if in.MicroBatches > 64 {
		in.MicroBatches = 64
	}
	ex := explain.Analyze(in, r.StageNames, explain.Options{Sensitivity: true})
	var buf bytes.Buffer
	if err := renderExplain(&buf, ex, r, in, experiments.FormatText, jsonOut, true); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The rendered explain report is a pure function of the Sim clock:
// byte-identical at any worker count, and pinned by a golden file so
// accidental drift in the analyzer or the renderers is caught.
func TestExplainOutputDeterministicAndGolden(t *testing.T) {
	defer gopim.SetWorkers(0)
	var want []byte
	for _, w := range []int{1, 2, 8} {
		gopim.SetWorkers(w)
		out := explainOutput(t, false)
		if want == nil {
			want = out
			continue
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("workers=%d: explain output differs from workers=1:\n%s\nvs\n%s", w, out, want)
		}
	}
	path := filepath.Join("testdata", "explain_ddi.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create)", err)
	}
	if !bytes.Equal(want, golden) {
		t.Errorf("explain output drifted from %s:\n%s", path, want)
	}
}

// The -json renderer must emit the analyzer's structure verbatim —
// parseable, finite, with the critical-path invariant intact.
func TestExplainJSONOutput(t *testing.T) {
	defer gopim.SetWorkers(0)
	gopim.SetWorkers(2)
	out := explainOutput(t, true)
	if bytes.Contains(out, []byte("NaN")) || bytes.Contains(out, []byte("Inf")) {
		t.Fatalf("non-finite value in explain JSON:\n%s", out)
	}
	var r struct {
		MakespanNS float64 `json:"makespan_ns"`
		Bottleneck string  `json:"bottleneck"`
		Path       []struct {
			StartNS float64 `json:"start_ns"`
			EndNS   float64 `json:"end_ns"`
		} `json:"path"`
	}
	// The gantt chart is appended after the JSON document; decode just
	// the document.
	dec := json.NewDecoder(bytes.NewReader(out))
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if r.Bottleneck == "" || len(r.Path) == 0 {
		t.Fatalf("incomplete analysis: %+v", r)
	}
	var sum float64
	for _, p := range r.Path {
		sum += p.EndNS - p.StartNS
	}
	if sum != r.MakespanNS {
		t.Fatalf("path durations sum to %v, makespan %v", sum, r.MakespanNS)
	}
}

// setExplainInfo records the headline figures in the manifest — and
// only when an analysis ran, so other commands' manifests keep their
// shape (the setFaultInfo contract).
func TestManifestExplainFields(t *testing.T) {
	resetObs(t)
	dir := t.TempDir()
	newSession := func() *obsSession {
		s, err := startObsSession(obsFlags{
			metricsPath: filepath.Join(dir, "m.txt"),
		}, []string{"explain", "ddi"})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := newSession()
	s.setRunInfo(1, "text", true)
	ex := explain.Analyze(accel.TraceInput(gopim.Simulate(gopim.GoPIM,
		gopim.Workload{Dataset: mustDataset(t, "ddi"), Seed: 1})), nil, explain.Options{})
	s.setExplainInfo(ex)
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "m.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.ExplainBottleneck == "" || m.ExplainCritShare <= 0 {
		t.Fatalf("manifest explain fields = %q/%v/%v",
			m.ExplainBottleneck, m.ExplainCritShare, m.ExplainEq6GapFrac)
	}

	// No analysis: the keys must not appear at all.
	s = newSession()
	s.setRunInfo(1, "text", true)
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, "m.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("explain_")) {
		t.Fatalf("explain keys leaked into a plain manifest:\n%s", data)
	}
}

func mustDataset(t *testing.T, name string) gopim.Dataset {
	t.Helper()
	d, err := gopim.DatasetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Flag plumbing: bad arguments fail fast with usage errors, before any
// simulation runs.
func TestExplainFlagValidation(t *testing.T) {
	s := &obsSession{}
	for _, args := range [][]string{
		{},                        // no dataset
		{"ddi", "GoPIM", "extra"}, // too many positionals
		{"no-such-dataset"},       // unknown dataset
		{"ddi", "no-such-model"},  // unknown model
		{"-mb", "-3", "ddi"},      // negative window
	} {
		if err := explainCmd(s, args, 1, experiments.FormatText); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

// explain accepts every model accel knows, Pipelayer included.
func TestExplainEveryModel(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "explain")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	for _, k := range accel.Kinds() {
		args := []string{"-no-sensitivity", "ddi", k.String()}
		if err := explainCmd(&obsSession{}, args, 1, experiments.FormatText); err != nil {
			t.Errorf("explain %v: %v", args, err)
		}
	}
	os.Stdout = stdout
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "critical path of Pipelayer on ddi") {
		t.Errorf("no Pipelayer report in the output:\n%s", data)
	}
}

// The marked gantt renders '*' cells exactly where the critical path
// runs; the summary output must carry the ruler and utilization gutter.
func TestExplainGanttMarks(t *testing.T) {
	out := string(explainOutput(t, false))
	if !strings.Contains(out, "critical path") {
		t.Fatalf("missing title: %s", out)
	}
	if !strings.Contains(out, "* = critical path") || !strings.Contains(out, "*") {
		t.Fatalf("no critical-path marks in gantt:\n%s", out)
	}
	if !strings.Contains(out, "t(ns)") || !strings.Contains(out, "util") {
		t.Fatalf("gantt missing ruler/util gutter:\n%s", out)
	}
}
