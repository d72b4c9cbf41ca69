package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gopim/internal/fault"
	"gopim/internal/obs"
)

// The -fault-* flags follow the GOPIM_WORKERS convention: invalid
// values warn and fall back instead of dying, and the sanitised result
// is what reaches the process-wide default and the manifest.
func TestFaultFlagFallbacks(t *testing.T) {
	var warnings bytes.Buffer
	obs.SetWarnOutput(&warnings)
	defer obs.SetWarnOutput(nil)

	// A negative rate is a typo, not a fatal error: faults stay off.
	if m := fault.FromFlags(-0.5, 1, 8); m.Enabled() {
		t.Fatal("negative -fault-rate must disable faults")
	}
	// Rate above 1 likewise.
	if m := fault.FromFlags(1.5, 1, 8); m.Enabled() {
		t.Fatal("-fault-rate > 1 must disable faults")
	}
	// A zero verify budget falls back to the default, keeping the rate.
	m := fault.FromFlags(0.001, 7, 0)
	if !m.Enabled() {
		t.Fatal("valid rate with bad verify budget must keep faults on")
	}
	if cfg := m.Config(); cfg.VerifyMax != fault.DefaultVerifyMax || cfg.Seed != 7 {
		t.Fatalf("sanitised config = %+v", cfg)
	}
	if !strings.Contains(warnings.String(), "fault") {
		t.Fatalf("invalid flags must hit the warn path, got: %q", warnings.String())
	}
}

// setFaultInfo records the active knobs in the manifest — and only
// when faults are on, so default-run manifests keep their shape.
func TestManifestFaultFields(t *testing.T) {
	resetObs(t)
	dir := t.TempDir()
	newSession := func() *obsSession {
		s, err := startObsSession(obsFlags{
			metricsPath: filepath.Join(dir, "m.txt"),
		}, []string{"all"})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := newSession()
	s.setRunInfo(1, "text", true)
	s.setFaultInfo(0.001, 5, 8)
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
	if m.FaultRate != 0.001 || m.FaultSeed != 5 || m.FaultVerifyMax != 8 {
		t.Fatalf("manifest fault fields = %v/%v/%v", m.FaultRate, m.FaultSeed, m.FaultVerifyMax)
	}

	// Faults off: the keys must not even appear in the JSON.
	s = newSession()
	s.setRunInfo(1, "text", true)
	s.setFaultInfo(0, 5, 8) // rate 0 = off
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, "m.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("fault_")) {
		t.Fatalf("fault keys leaked into a fault-free manifest:\n%s", data)
	}
}
