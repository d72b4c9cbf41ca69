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

// BenchmarkApplyDelta prices one churn epoch's incremental re-mapping
// at arxiv scale: the synthesized arxiv degrees with 0.5% of its edges
// each adding one to both endpoints' degrees. ApplyDelta updates the
// layout in place, so the ops alternate between the two degree states
// (each op a real delta, never the no-change path); after the first op
// the layout's carried keys and buffers are warm.
func BenchmarkApplyDelta(b *testing.B) {
	d, err := graphgen.ByName("arxiv")
	if err != nil {
		b.Fatal(err)
	}
	degs := d.SynthDegreeModel(1).DegreesByIndex
	l := InterleavedLayout(degs, 64)
	rng := rand.New(rand.NewSource(2))
	next := append([]float64(nil), degs...)
	var changed []int
	for i := 0; i < d.PaperEdges/200; i++ {
		u, v := rng.Intn(len(next)), rng.Intn(len(next))
		next[u]++
		next[v]++
		changed = append(changed, u, v)
	}
	states := [2][]float64{next, degs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stats := l.ApplyDelta(states[i%2], changed, nil); stats.Full {
			b.Fatal("delta fell back to a full remap")
		}
	}
}
