package experiments

import (
	"sync"
	"testing"

	"gopim/internal/obs"
	"gopim/internal/parallel"
)

// TestSharedPredictorCacheDeterministicCounts pins the shared
// predictor's determinism contract: whatever the worker count and
// however the callers interleave, exactly one miss is counted per
// distinct Options key and every other lookup is a hit — so
// simmemo.predictor_hits/misses stay byte-identical across
// 1/2/8-worker runs. It also checks that every caller for a key gets
// the same trained model (no duplicated training).
func TestSharedPredictorCacheDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("trains MLP predictors")
	}
	defer parallel.SetWorkers(0)
	// Each round starts from a cleared registry: the reset zeroes the
	// counters and (its OnReset hook) empties the predictor memo, so
	// every round trains anew and a repeat run (-count=N) sees the same
	// counts as the first.
	t.Cleanup(obs.Default().Reset)
	// The predictor memo domain's own counters (registered by
	// simmemo.NewCache; NewCounter returns the existing ones).
	mHits := obs.NewCounter("simmemo.predictor_hits", obs.Sim, "")
	mMisses := obs.NewCounter("simmemo.predictor_misses", obs.Sim, "")

	keys := []Options{
		{Seed: 90101, Fast: true},
		{Seed: 90102, Fast: true},
	}
	const callersPerKey = 8

	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		obs.Default().Reset()
		var wg sync.WaitGroup
		models := make([]any, len(keys)*callersPerKey)
		for i := range models {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				models[i] = SharedPredictor(keys[i%len(keys)])
			}()
		}
		wg.Wait()

		misses, hits := mMisses.Value(), mHits.Value()
		wantMisses := int64(len(keys))
		wantHits := int64(len(keys)*callersPerKey) - wantMisses
		if misses != wantMisses || hits != wantHits {
			t.Fatalf("workers=%d: misses=%d hits=%d, want misses=%d hits=%d (scheduling leaked into the totals)",
				workers, misses, hits, wantMisses, wantHits)
		}
		for i := range models {
			if models[i] != models[i%len(keys)] {
				t.Fatalf("workers=%d: caller %d got a different model than the first caller of its key", workers, i)
			}
		}
	}
}
