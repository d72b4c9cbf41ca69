package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"gopim/internal/experiments"
)

// sweepWorkload regenerates the paper's whole evaluation: a cold
// experiments.RunAll over every registered id with Fast set, at the
// benchmark's worker count — what `gopim -fast all` does.
//
// Why: it is where gcn, mlp/predictor, tensor GEMM, sparsemat and
// simmemo do almost all their work. At one worker a CPU profile shows
// dense GEMM near 57% of CPU, GCN training near 47% cumulative, MLP
// fitting near 38% and the mapping sorts near 9%; the simulator layers
// do little here.
type sweepWorkload struct {
	opt experiments.Options
	ids []string

	mu   sync.Mutex
	busy map[string]time.Duration // traced runs: harness wall per id
}

func (w *sweepWorkload) setup(seed int64, _ *ledger) error {
	w.opt = experiments.Options{Seed: seed, Fast: true}
	w.ids = experiments.IDs()
	w.busy = map[string]time.Duration{}
	return nil
}

func (w *sweepWorkload) run(tr *ledger) (outcome, error) {
	var hooks experiments.RunHooks
	root := tr.open("sweep.run", -1, 0)
	if tr != nil {
		// One span per harness, laid out on its own lane; OnDone's wall
		// time is the harness's busy time.
		var mu sync.Mutex
		open := map[string]int{}
		hooks.OnStart = func(id string) {
			mu.Lock()
			open[id] = tr.open("experiment:"+id, root, len(open)+1)
			mu.Unlock()
		}
		hooks.OnDone = func(id string, wall time.Duration, _ error) {
			mu.Lock()
			tr.close(open[id])
			mu.Unlock()
			w.mu.Lock()
			w.busy[id] += wall
			w.mu.Unlock()
		}
	}
	results, err := experiments.RunAllWithHooks(w.ids, w.opt, hooks)
	tr.close(root)
	out := outcome{attempted: len(w.ids)}
	if err != nil {
		out.failed = len(w.ids)
		return out, fmt.Errorf("sweep: %w", err)
	}
	out.digest, err = sweepDigest(results)
	if err != nil {
		out.failed = len(w.ids)
	}
	return out, err
}

// sweepDigest hashes the rendered results in id order — exactly the
// text `gopim -fast all` prints.
func sweepDigest(results []*experiments.Result) (string, error) {
	var b bytes.Buffer
	for _, r := range results {
		if r == nil {
			return "", fmt.Errorf("sweep: missing result")
		}
		if err := r.Render(&b); err != nil {
			return "", fmt.Errorf("sweep: render %s: %w", r.ID, err)
		}
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func (w *sweepWorkload) layers(m map[string]float64, runS float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	named := map[string]bool{}
	for _, id := range sweepExperiments {
		named[id] = true
		m["experiments."+id+".busy_s"] = w.busy[id].Seconds()
	}
	var rest, total time.Duration
	for id, d := range w.busy {
		total += d
		if !named[id] {
			rest += d
		}
	}
	m["experiments.rest.busy_s"] = rest.Seconds()
	m["experiments.idle_s"] = float64(workers)*runS - total.Seconds()
}

func (w *sweepWorkload) close() {}
