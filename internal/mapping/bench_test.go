package mapping

import (
	"math/rand"
	"testing"

	"gopim/internal/graphgen"
)

func benchDegrees(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	return graphgen.PowerLawWeights(rng, n, 50, 2.1)
}

func BenchmarkInterleavedLayout(b *testing.B) {
	degs := benchDegrees(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InterleavedLayout(degs, 64)
	}
}

var planSink *UpdatePlan

func BenchmarkNewUpdatePlan(b *testing.B) {
	degs := benchDegrees(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planSink = NewUpdatePlan(degs, 0.5, 20)
	}
}

func BenchmarkUpdatedRowsPerGroup(b *testing.B) {
	degs := benchDegrees(100_000)
	l := InterleavedLayout(degs, 64)
	p := NewUpdatePlan(degs, 0.5, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.UpdatedRowsPerGroup(p, i%20)
	}
}
