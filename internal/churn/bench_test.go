package churn

import (
	"slices"
	"testing"

	"gopim/internal/graphgen"
)

// BenchmarkMutate prices one churn epoch's mutation batch at arxiv
// scale: 0.5% edge churn over the synthesized arxiv degrees.
func BenchmarkMutate(b *testing.B) {
	d, err := graphgen.ByName("arxiv")
	if err != nil {
		b.Fatal(err)
	}
	degs := slices.Clone(d.SynthDegreeModel(1).DegreesByIndex)
	s, err := NewStream(Config{Rate: 0.005, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Mutate(degs, i)
	}
}
