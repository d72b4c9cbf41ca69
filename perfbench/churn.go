package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"gopim/internal/accel"
	"gopim/internal/churn"
	"gopim/internal/graphgen"
)

// churnEpochs sizes one churn run: about 70 ms an epoch on arxiv, so a
// run takes a few seconds and one benchmark run repeats it several
// times.
const churnEpochs = 40

// churnWorkload streams a drifting arxiv graph through accel.RunChurn at
// a 0.5% edge churn rate with the threshold refresh policy and wear on
// (DaysPerEpoch from ChurnDaysForRetirement), so crossbar retirement
// and degraded allocation happen mid-loop.
//
// Why: it uses mapping differently from a plan — incremental
// ApplyDelta writes instead of from-scratch layouts — and runs
// churn.Stream.Mutate, stage.Build and alloc degradation every epoch.
// ppa is deliberately not used: every ppa epoch falls back to a full
// remap, even at a 0.1% rate, which mapping.incremental_ratio records
// whenever it happens.
type churnWorkload struct {
	w   accel.Workload
	cc  churn.Config
	res accel.ChurnResult
}

// churnGraphSeed fixes the synthesized arxiv degree model. Synthesis
// seeds change how many edges the graph has, and with them the churn
// volume: at seed 6 a run mutates half the edges it does at seed 1.
// Holding the graph fixed keeps every benchmark seed doing the same
// amount of work.
const churnGraphSeed = 1

// churnConfig derives the run's inputs from the seed, which drives the
// mutation stream over the fixed arxiv graph.
func churnConfig(seed int64) (graphgen.Dataset, churn.Config, error) {
	d, err := graphgen.ByName("arxiv")
	cc := churn.Config{
		Rate:         0.005,
		Seed:         seed,
		Policy:       churn.Threshold,
		DaysPerEpoch: accel.ChurnDaysForRetirement(churnEpochs, 1.2),
	}
	return d, cc, err
}

func (c *churnWorkload) setup(seed int64, tr *ledger) error {
	d, cc, err := churnConfig(seed)
	if err != nil {
		return err
	}
	c.cc = cc
	tr.do("setup.degmodel", setupSpan, 0, func() {
		c.w = accel.Workload{Dataset: d, Seed: churnGraphSeed, Deg: accel.DegModelFor(d, churnGraphSeed)}
	})
	return nil
}

func (c *churnWorkload) run(tr *ledger) (outcome, error) {
	out := outcome{attempted: churnEpochs}
	var err error
	tr.do("churn.run", -1, 0, func() {
		c.res, err = accel.RunChurn(c.w, c.cc, churnEpochs)
	})
	if err == nil && len(c.res.Epochs) != churnEpochs {
		err = fmt.Errorf("churn: %d epochs reported, want %d", len(c.res.Epochs), churnEpochs)
	}
	if err == nil {
		out.digest, err = churnDigest(c.res)
	}
	if err != nil {
		out.failed = churnEpochs
	}
	return out, err
}

// churnDigest hashes the whole ChurnResult, every epoch row included.
func churnDigest(r accel.ChurnResult) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("churn: encode result: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func (c *churnWorkload) layers(m map[string]float64, _ float64) {
	r := c.res
	m["churn.epochs"] = float64(len(r.Epochs))
	m["churn.edges_changed"] = float64(r.EdgesAdded + r.EdgesRemoved)
	m["churn.stripes_moved"] = float64(r.StripesMoved)
	m["churn.full_remaps"] = float64(r.FullRemaps)
	m["churn.refreshes"] = float64(r.Refreshes)
	m["churn.retirements"] = float64(r.Retirements)
	m["churn.degraded_epochs"] = float64(r.DegradedEpochs)
	if len(r.Epochs) > 0 {
		m["mapping.incremental_ratio"] = 1 - float64(r.FullRemaps)/float64(len(r.Epochs))
	}
}

func (c *churnWorkload) close() {}
