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
	// The predictor memo domain's own counters (registered by
	// simmemo.NewCache; NewCounter returns the existing ones).
	mHits := obs.NewCounter("simmemo.predictor_hits", obs.Sim, "")
	mMisses := obs.NewCounter("simmemo.predictor_misses", obs.Sim, "")

	// Distinct seeds far from other tests' keys so this test's misses
	// are its own even if another test already warmed the cache.
	keys := []Options{
		{Seed: 90101, Fast: true},
		{Seed: 90102, Fast: true},
	}
	const callersPerKey = 8

	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		// Fresh keys per worker count: shift seeds so every round
		// trains anew rather than hitting the previous round's cache.
		round := make([]Options, len(keys))
		for i, k := range keys {
			round[i] = Options{Seed: k.Seed + int64(workers)*1000, Fast: true}
		}

		hits0, misses0 := mHits.Value(), mMisses.Value()
		var wg sync.WaitGroup
		models := make([]any, len(round)*callersPerKey)
		for i := range models {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				models[i] = SharedPredictor(round[i%len(round)])
			}()
		}
		wg.Wait()

		misses := mMisses.Value() - misses0
		hits := mHits.Value() - hits0
		wantMisses := int64(len(round))
		wantHits := int64(len(round)*callersPerKey) - wantMisses
		if misses != wantMisses || hits != wantHits {
			t.Fatalf("workers=%d: misses=%d hits=%d, want misses=%d hits=%d (scheduling leaked into the totals)",
				workers, misses, hits, wantMisses, wantHits)
		}
		for i := range models {
			if models[i] != models[i%len(round)] {
				t.Fatalf("workers=%d: caller %d got a different model than the first caller of its key", workers, i)
			}
		}
	}
}
