package predictor

import (
	"testing"

	"gopim/internal/simmemo"
)

// BenchmarkSharedPredictor times a cold Shared on the fast profile
// spec (testSpec: the sweep `gopim -fast` trains and `gopim serve`
// trains at start-up): profile generation plus four 10-256-1 MLP fits.
// Every op clears the memo caches first, so each one trains from
// scratch rather than returning the first op's predictor.
func BenchmarkSharedPredictor(b *testing.B) {
	spec := testSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		simmemo.ResetAll()
		if Shared(spec) == nil {
			b.Fatal("Shared returned nil")
		}
	}
}
