package mlp

import (
	"fmt"
	"math/rand"
	"testing"

	"gopim/internal/tensor"
)

// BenchmarkFit times training at the time predictor's batch size of 16
// on its network, 10-256-1 (paper §V-A), and on fig9's deeper
// 10-256-256-1, over 208 samples (13 batches per epoch). One Fit call
// runs b.N epochs, so per-op numbers are per epoch with Fit's set-up
// (index slice, workspaces, the Wᵀ scratch, Adam state) amortised
// away: in steady state an epoch allocates nothing, and allocs/op must
// read 0.
func BenchmarkFit(b *testing.B) {
	const samples, batch = 208, 16
	for _, sizes := range [][]int{{10, 256, 1}, {10, 256, 256, 1}} {
		b.Run(fmt.Sprintf("%v", sizes), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := tensor.NewRandom(rng, samples, sizes[0], 1)
			y := tensor.NewRandom(rng, samples, 1, 1)
			n := New(rng, sizes...)
			b.ReportAllocs()
			b.ResetTimer()
			n.Fit(rng, NewAdam(1e-3), x, y, b.N, batch)
		})
	}
}
