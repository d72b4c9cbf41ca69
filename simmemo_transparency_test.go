package gopim_test

import (
	"bytes"
	"strings"
	"testing"

	"gopim"
	"gopim/internal/experiments"
	"gopim/internal/obs"
	"gopim/internal/simmemo"
)

// The memo layer's contract: a memoized sweep renders the same bytes
// and leaves the same Sim snapshot as a sweep that recomputes every
// cell, apart from the simmemo.* hit/miss counters and the parallel.*
// pool-attribution counters, which meter executed work — exactly what
// a memo hit elides. The workload is chosen so every memo domain takes
// at least one hit, and the test fails naming any domain that takes
// none, so its coverage cannot rot silently: faultsweep and fig16
// revisit training runs, instances and degree models; fig9 the profile
// sweep and RMSE bars; tab7 and fig14 accelerator runs and their
// schedules; and a second shared-predictor lookup, as a serve request
// with use_predictor makes, hits the predictor domain. It runs memo
// on, off, then on again: the two memo-on runs must agree too, which
// they only do when every cache clears with the registry.
func TestMemoOffReproducesMemoOn(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs five experiments three times, training GCNs and predictors")
	}
	ids := []string{"faultsweep", "fig16", "fig9", "tab7", "fig14"}
	opt := gopim.ExperimentOptions{Seed: 1, Fast: true}

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer obs.Default().Reset()
	defer simmemo.SetEnabled(true)
	defer simmemo.ResetAll()

	// run returns the rendered results, the Sim snapshot without the
	// simmemo.* and parallel.* lines, and the simmemo.* lines alone.
	run := func(memo bool) (out, sim, memoSim string) {
		simmemo.SetEnabled(memo)
		simmemo.ResetAll()
		obs.Default().Reset()
		results, err := gopim.RunExperiments(ids, opt)
		if err != nil {
			t.Fatal(err)
		}
		experiments.SharedPredictor(experiments.Options{Seed: opt.Seed, Fast: opt.Fast})
		var o, s bytes.Buffer
		for _, r := range results {
			if err := r.Render(&o); err != nil {
				t.Fatal(err)
			}
		}
		if err := obs.Default().WriteText(&s, obs.Sim); err != nil {
			t.Fatal(err)
		}
		var kept, memoLines []string
		for _, line := range strings.SplitAfter(s.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "simmemo."):
				memoLines = append(memoLines, line)
			case !strings.HasPrefix(line, "parallel."):
				kept = append(kept, line)
			}
		}
		return o.String(), strings.Join(kept, ""), strings.Join(memoLines, "")
	}

	onOut, onSim, onMemo := run(true)
	var domains int
	for _, line := range strings.Split(onMemo, "\n") {
		name, _, _ := strings.Cut(line, " ")
		if domain, ok := strings.CutSuffix(strings.TrimPrefix(name, "simmemo."), "_hits"); ok {
			domains++
			if strings.HasSuffix(line, " count=0") {
				t.Errorf("memo domain %q takes no hit on this workload, so its replay goes unchecked", domain)
			}
		}
	}
	if domains == 0 {
		t.Fatalf("Sim snapshot has no simmemo hit counters:\n%s", onMemo)
	}
	if !strings.Contains(onSim, "gcn.") || !strings.Contains(onSim, "predictor.") {
		t.Fatalf("Sim snapshot lacks gcn or predictor metrics:\n%s", onSim)
	}

	offOut, offSim, _ := run(false)
	if offOut != onOut {
		t.Errorf("memo off renders different bytes:\n--- memo on ---\n%s--- memo off ---\n%s", onOut, offOut)
	}
	if offSim != onSim {
		t.Errorf("memo off leaves a different Sim snapshot:\n--- memo on ---\n%s--- memo off ---\n%s", onSim, offSim)
	}

	againOut, againSim, againMemo := run(true)
	if againOut != onOut {
		t.Errorf("second memo-on run renders different bytes:\n--- first ---\n%s--- second ---\n%s", onOut, againOut)
	}
	if againSim+againMemo != onSim+onMemo {
		t.Errorf("second memo-on run leaves a different Sim snapshot:\n--- first ---\n%s%s--- second ---\n%s%s",
			onSim, onMemo, againSim, againMemo)
	}
}
