package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gopim/internal/obs"
	"gopim/internal/simmemo"
)

// The -sim-memo knob follows the GOPIM_WORKERS convention: an invalid
// value warns and falls back (on) instead of dying, and the sanitised
// result is what reaches the process-wide state.
func TestKernelFlagFallbacks(t *testing.T) {
	var warnings bytes.Buffer
	restore := obs.SetWarnOutput(&warnings)
	defer restore()
	defer simmemo.SetEnabled(true)
	t.Setenv(simmemo.EnvVar, "")

	simmemo.Configure("offf") // typo'd switch: stays on
	if !simmemo.Enabled() {
		t.Fatal("typo'd -sim-memo must keep the memo on")
	}
	if warnings.Len() == 0 {
		t.Fatal("an invalid -sim-memo must hit the warn path")
	}

	simmemo.Configure("off")
	if simmemo.Enabled() {
		t.Fatal("a valid -sim-memo must apply")
	}
}

// setKernelInfo records the memo state in the run manifest only when
// it is off the default, so default-run manifests keep their shape.
func TestManifestKernelFields(t *testing.T) {
	resetObs(t)
	defer simmemo.SetEnabled(true)
	dir := t.TempDir()
	runSession := func() *obs.Manifest {
		s, err := startObsSession(obsFlags{
			metricsPath: filepath.Join(dir, "m.txt"),
		}, []string{"all"})
		if err != nil {
			t.Fatal(err)
		}
		s.setRunInfo(1, 0, "text", true)
		if err := s.finish(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "m.manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		m := new(obs.Manifest)
		if err := json.Unmarshal(data, m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Default: the key is absent.
	simmemo.SetEnabled(true)
	m := runSession()
	if m.SimMemo != "" {
		t.Fatalf("default manifest must omit sim_memo, got %q", m.SimMemo)
	}

	// Memo off surfaces.
	simmemo.SetEnabled(false)
	m = runSession()
	if m.SimMemo != "off" {
		t.Fatalf("manifest sim_memo = %q, want off", m.SimMemo)
	}
}
