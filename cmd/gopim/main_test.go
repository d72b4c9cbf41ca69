package main

import (
	"bytes"
	"strings"
	"testing"
)

// endurance ddi prints the three row classes' lifetimes, with ISU's
// unimportant rows outliving full updating by the stale period.
func TestShowEnduranceSmoke(t *testing.T) {
	var b bytes.Buffer
	if err := showEndurance(&b, "ddi", 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"endurance on ddi (θ=50%, stale period 20,",
		"  full updating:",
		"  ISU important rows:",
		"20x longer)",
		"  mean wear vs full:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("endurance output missing %q:\n%s", want, out)
		}
	}
	if err := showEndurance(&b, "nope", 1); err == nil {
		t.Error("unknown dataset must fail")
	}
}

// -fast theta ddi sweeps the eight candidate thresholds and names the
// one it picks next to the paper's density rule.
func TestSearchThetaSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains nine GCNs")
	}
	var b bytes.Buffer
	if err := searchTheta(&b, "ddi", 1, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("theta output has %d lines, want header + 8 points + choice:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "θ search on ddi (baseline accuracy ") {
		t.Errorf("header = %q", lines[0])
	}
	for i, th := range []string{"20", "30", "40", "50", "60", "70", "80", "90"} {
		if !strings.HasPrefix(lines[1+i], "  θ="+th+"%  accuracy ") {
			t.Errorf("point %d = %q, want θ=%s%%", i, lines[1+i], th)
		}
	}
	if !strings.HasPrefix(lines[9], "chosen θ: ") || !strings.HasSuffix(lines[9], "(paper's density rule would pick 50%)") {
		t.Errorf("choice line = %q", lines[9])
	}
}
