package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var fastOpt = Options{Seed: 1, Fast: true}

var updateGolden = flag.Bool("update", false, "rewrite the fast-mode golden files")

// trainingGoldens are the experiments that train models. Their
// paper-scale run takes minutes, so tier-1 holds their fast-mode
// output instead: testdata/fast/<id>.golden.txt is the section
// `gopim -fast -seed 1 <id>` prints. A change that moves one of their
// numbers on purpose regenerates the files with
//
//	go test ./internal/experiments -run TestAllExperimentsRunFast -update
//
// Like the serve goldens, the files are the amd64 bits; a host whose
// compiler fuses multiply-adds (arm64) may differ in the last digits.
var trainingGoldens = map[string]bool{
	"fig9": true, "fig16": true, "tab5": true, "cora": true,
	"gen": true, "tab7": true, "faultsweep": true, "churnsweep": true,
}

// checkFastGolden compares an experiment's rendered fast-mode output
// with its golden file, naming the first differing line.
func checkFastGolden(t *testing.T, id string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", "fast", id+".golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Fatalf("%s: fast output drifted from %s at line %d:\n  want %q\n  got  %q", id, golden, i+1, wl, gl)
		}
	}
}

func TestIDsComplete(t *testing.T) {
	want := []string{"abl", "churnsweep", "cora", "faultsweep", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig4", "fig5", "fig6", "fig7",
		"fig9", "gen", "tab5", "tab6", "tab7"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("nope", fastOpt); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestRenderShape(t *testing.T) {
	res, err := Run("fig7", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig7", "OSU", "ISU", "paper:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
}

// fig7 is fully deterministic: the paper's toy example must reproduce
// exactly.
func TestFig7ExactCycles(t *testing.T) {
	res, err := Run("fig7", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"full update":               "4",
		"OSU (index + θ=0.5)":       "4",
		"ISU (interleaved + θ=0.5)": "2",
	}
	for _, row := range res.Rows {
		if w, ok := want[row[0]]; ok && row[1] != w {
			t.Fatalf("%s = %s cycles, want %s (paper Figs. 7/12)", row[0], row[1], w)
		}
	}
}

// fig5's worked example must show case (c) beating case (b).
func TestFig5Ordering(t *testing.T) {
	res, err := Run("fig5", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 cases, got %d", len(res.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, " units"), 64)
		if err != nil {
			t.Fatalf("bad time cell %q", s)
		}
		return v
	}
	a := parse(res.Rows[0][1])
	b := parse(res.Rows[1][1])
	c := parse(res.Rows[2][1])
	if !(c < b && b < a) {
		t.Fatalf("want (c) < (b) < (a), got %v %v %v", a, b, c)
	}
}

// fig4 must show combination-stage crossbars idling ≳90%.
func TestFig4IdleRegime(t *testing.T) {
	res, err := Run("fig4", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0] == "average" {
			for _, cell := range row[1:] {
				if cell == "" {
					continue
				}
				v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
				if err != nil {
					t.Fatalf("bad cell %q", cell)
				}
				if v < 90 {
					t.Fatalf("average CO idle %v%%, want ≥90%% (paper ≈98%%)", v)
				}
			}
		}
	}
}

// fig13 must have GoPIM as the largest speedup in every dataset row.
func TestFig13GoPIMWins(t *testing.T) {
	res, err := Run("fig13", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	parseX := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	seen := 0
	for _, row := range res.Rows {
		if row[1] != "speedup" {
			continue
		}
		seen++
		gopim := parseX(row[len(row)-1])
		for _, cell := range row[2 : len(row)-1] {
			if parseX(cell) > gopim {
				t.Fatalf("row %v: GoPIM (%v) must lead", row, gopim)
			}
		}
	}
	if seen < 6 { // five datasets + average
		t.Fatalf("only %d speedup rows", seen)
	}
}

// raceSkip lists experiments whose fast mode still spends minutes in
// MLP/GCN training; under the race detector's ~10× slowdown they blow
// the per-package test timeout on small machines. Their parallel
// kernels stay race-checked through the remaining sweep (gen, tab7,
// fig13, …) and through the kernel packages' own -race tests.
var raceSkip = map[string]string{
	"fig9":  "trains 11 predictor variants",
	"fig16": "sensitivity sweep re-simulates every point",
	"tab5":  "trains GCNs to convergence",
	"cora":  "trains GCNs to convergence",
}

// All remaining experiments must at least run and produce non-empty
// tables in fast mode, and the training experiments must print their
// golden output.
func TestAllExperimentsRunFast(t *testing.T) {
	if testing.Short() {
		t.Skip("fast-mode sweep still trains predictors and GCNs")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if raceDetectorEnabled {
				if why, ok := raceSkip[id]; ok {
					t.Skipf("skipped under -race: %s", why)
				}
			}
			res, err := Run(id, fastOpt)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id || res.Title == "" || len(res.Header) == 0 || len(res.Rows) == 0 {
				t.Fatalf("degenerate result: %+v", res)
			}
			for _, row := range res.Rows {
				if len(row) > len(res.Header) {
					t.Fatalf("row wider than header: %v", row)
				}
			}
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if trainingGoldens[id] {
				checkFastGolden(t, id, buf.Bytes())
			}
		})
	}
}

func TestRenderFormats(t *testing.T) {
	res, err := Run("fig7", fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, mdBuf bytes.Buffer
	if err := res.RenderAs(&csvBuf, FormatCSV); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "scheme,update cycles") {
		t.Fatalf("csv output wrong:\n%s", csvBuf.String())
	}
	if err := res.RenderAs(&mdBuf, FormatMarkdown); err != nil {
		t.Fatal(err)
	}
	md := mdBuf.String()
	if !strings.Contains(md, "| scheme |") || !strings.Contains(md, "| --- |") {
		t.Fatalf("markdown output wrong:\n%s", md)
	}
	if err := res.RenderAs(&mdBuf, Format("xml")); err == nil {
		t.Fatal("expected error for unknown format")
	}
	if err := res.RenderAs(&mdBuf, "md"); err != nil {
		t.Fatal("md alias should work")
	}
	if err := res.RenderAs(&mdBuf, ""); err != nil {
		t.Fatal("empty format should default to text")
	}
}
