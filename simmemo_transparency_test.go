package gopim_test

import (
	"bytes"
	"strings"
	"testing"

	"gopim"
	"gopim/internal/obs"
	"gopim/internal/simmemo"
)

// The memo layer's contract: a memoized sweep renders the same bytes
// and leaves the same Sim snapshot as a sweep that recomputes every
// cell, apart from the simmemo.* hit/miss counters and the parallel.*
// pool-attribution counters, which meter executed work — exactly what
// a memo hit elides. faultsweep and fig16 revisit training
// configurations and instances, so the gcn training memo replays its
// stored counters on hits here, next to instance and degree-model hits.
func TestMemoOffReproducesMemoOn(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs faultsweep and fig16 twice, training GCNs")
	}
	ids := []string{"faultsweep", "fig16"}
	opt := gopim.ExperimentOptions{Seed: 1, Fast: true}

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer obs.Default().Reset()
	defer simmemo.SetEnabled(true)
	defer simmemo.ResetAll()

	run := func() (out, sim string) {
		simmemo.ResetAll()
		obs.Default().Reset()
		results, err := gopim.RunExperiments(ids, opt)
		if err != nil {
			t.Fatal(err)
		}
		var o, s bytes.Buffer
		for _, r := range results {
			if err := r.Render(&o); err != nil {
				t.Fatal(err)
			}
		}
		if err := obs.Default().WriteText(&s, obs.Sim); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.SplitAfter(s.String(), "\n") {
			if !strings.HasPrefix(line, "simmemo.") && !strings.HasPrefix(line, "parallel.") {
				kept = append(kept, line)
			}
		}
		return o.String(), strings.Join(kept, "")
	}

	simmemo.SetEnabled(true)
	onOut, onSim := run()
	simmemo.SetEnabled(false)
	offOut, offSim := run()

	if offOut != onOut {
		t.Errorf("memo off renders different bytes:\n--- memo on ---\n%s--- memo off ---\n%s", onOut, offOut)
	}
	if !strings.Contains(onSim, "gcn.") {
		t.Fatalf("Sim snapshot has no gcn metrics:\n%s", onSim)
	}
	if offSim != onSim {
		t.Errorf("memo off leaves a different Sim snapshot:\n--- memo on ---\n%s--- memo off ---\n%s", onSim, offSim)
	}
}
