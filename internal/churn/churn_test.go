package churn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gopim/internal/graphgen"
)

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"typical", Config{Rate: 0.05, Seed: 7, Policy: Adaptive}, true},
		{"rate-high", Config{Rate: 1.5}, false},
		{"rate-nan", Config{Rate: math.NaN()}, false},
		{"days-inf", Config{DaysPerEpoch: math.Inf(1)}, false},
		{"bad-policy", Config{Policy: "lazy"}, false},
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy(""); err != nil || p != DefaultPolicy {
		t.Fatalf("empty policy: got %q, %v", p, err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy must error")
	}
}

func TestShouldRefresh(t *testing.T) {
	if !(Config{Policy: Eager}).ShouldRefresh(0) {
		t.Fatal("eager must refresh at zero drift")
	}
	for _, cfg := range []Config{{Policy: Threshold}, {Policy: Adaptive}, {}} {
		if cfg.ShouldRefresh(DefaultDriftThreshold/2) || !cfg.ShouldRefresh(DefaultDriftThreshold) {
			t.Fatalf("policy %q must trip exactly at the default threshold", cfg.Policy)
		}
	}
}

// newStream builds a stream from a configuration the test knows valid.
func newStream(t *testing.T, cfg Config) *Stream {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func degSeq(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	degs := make([]float64, n)
	for i := range degs {
		degs[i] = float64(rng.Intn(20) + 1)
	}
	return degs
}

// TestStreamDeterministic: identical (config, epoch, input) must yield
// identical mutations — the worker-count-independence foundation.
func TestStreamDeterministic(t *testing.T) {
	cfg := Config{Rate: 0.05, Seed: 42}
	sa, sb := newStream(t, cfg), newStream(t, cfg)
	sa.Reset(degSeq(200, 1))
	sb.Reset(degSeq(200, 1))
	var a []float64
	for e := 0; e < 5; e++ {
		var b []float64
		var da, db Delta
		a, da = sa.Mutate(e)
		b, db = sb.Mutate(e)
		if !reflect.DeepEqual(da, db) || !reflect.DeepEqual(a, b) {
			t.Fatalf("epoch %d diverged: %+v vs %+v", e, da, db)
		}
	}
	// A different seed must draw a different batch.
	sc := newStream(t, Config{Rate: 0.05, Seed: 43})
	sc.Reset(degSeq(200, 1))
	c, dc := sc.Mutate(0)
	if reflect.DeepEqual(a, c) && reflect.DeepEqual(dc, Delta{}) {
		t.Fatal("different seed produced no divergence")
	}
}

// TestStreamDeltaAccounting: the delta's edge counts must match the
// degree-mass movement and Changed must list exactly the moved ids.
func TestStreamDeltaAccounting(t *testing.T) {
	degs := degSeq(300, 2)
	before := append([]float64(nil), degs...)
	var massBefore float64
	for _, d := range degs {
		massBefore += d
	}
	s := newStream(t, Config{Rate: 0.1, Seed: 9})
	start := s.Reset(degs)
	degs, d := s.Mutate(0)
	if !reflect.DeepEqual(start, before) {
		t.Fatal("Mutate wrote to its start buffer")
	}
	if d.EdgesAdded == 0 && d.EdgesRemoved == 0 {
		t.Fatal("10% churn on 300 vertices mutated nothing")
	}
	var massAfter float64
	for _, g := range degs {
		massAfter += g
		if g < 0 {
			t.Fatal("negative degree after churn")
		}
	}
	if want := massBefore + 2*float64(d.EdgesAdded-d.EdgesRemoved); massAfter != want {
		t.Fatalf("degree mass %v, want %v (added %d removed %d)",
			massAfter, want, d.EdgesAdded, d.EdgesRemoved)
	}
	changed := map[int]bool{}
	last := -1
	for _, v := range d.Changed {
		if v <= last {
			t.Fatalf("Changed not ascending/unique: %v", d.Changed)
		}
		last = v
		changed[v] = true
	}
	for v := range before {
		if (degs[v] != before[v]) != changed[v] {
			t.Fatalf("vertex %d: moved=%v but changed=%v", v, degs[v] != before[v], changed[v])
		}
	}
}

// TestStreamDisabled: a zero config must be a structural no-op.
func TestStreamDisabled(t *testing.T) {
	degs := degSeq(50, 5)
	before := append([]float64(nil), degs...)
	s := newStream(t, Config{})
	s.Reset(degs)
	got, d := s.Mutate(0)
	if !reflect.DeepEqual(got, before) || !reflect.DeepEqual(d, Delta{}) {
		t.Fatalf("disabled stream mutated: %+v", d)
	}
}

// TestStreamPreservesSkew: sustained preferential churn must keep the
// degree distribution heavy-tailed (max well above mean), not flatten
// it toward uniform.
func TestStreamPreservesSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 500
	degs := make([]float64, n)
	for i := range degs {
		// Rough power-law start: a few hubs, many leaves.
		degs[i] = math.Floor(1 + 50/float64(1+rng.Intn(25)))
	}
	s := newStream(t, Config{Rate: 0.05, Seed: 6})
	s.Reset(degs)
	for e := 0; e < 40; e++ {
		degs, _ = s.Mutate(e)
	}
	var sum, max float64
	for _, g := range degs {
		sum += g
		if g > max {
			max = g
		}
	}
	if mean := sum / float64(n); max < 4*mean {
		t.Fatalf("tail flattened: max %v < 4×mean %v", max, mean)
	}
}

func testGraph(t *testing.T) *graphgen.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	return graphgen.PowerLaw(rng, 200, 6, 2.1)
}

// TestGraphStateRoundTrip: snapshotting a graph and materialising it
// back unmutated must preserve edges and degrees.
func TestGraphStateRoundTrip(t *testing.T) {
	g := testGraph(t)
	gs := NewGraphState(g)
	if gs.Edges() != g.Edges() {
		t.Fatalf("edge count %d, want %d", gs.Edges(), g.Edges())
	}
	back := gs.Graph()
	if back.Edges() != g.Edges() || !reflect.DeepEqual(back.Degrees(), g.Degrees()) {
		t.Fatal("round trip changed the graph")
	}
}

// TestGraphStateMutateDeterministic: explicit-graph churn must be
// reproducible and keep the degree bookkeeping consistent with the
// materialised graph.
func TestGraphStateMutateDeterministic(t *testing.T) {
	cfg := Config{Rate: 0.1, Seed: 12}
	a, b := NewGraphState(testGraph(t)), NewGraphState(testGraph(t))
	for e := 0; e < 4; e++ {
		da, db := a.Mutate(cfg, e), b.Mutate(cfg, e)
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("epoch %d diverged: %+v vs %+v", e, da, db)
		}
		if da.EdgesAdded == 0 && da.EdgesRemoved == 0 {
			t.Fatalf("epoch %d mutated nothing", e)
		}
	}
	ga, gb := a.Graph(), b.Graph()
	if !reflect.DeepEqual(ga.Degrees(), gb.Degrees()) {
		t.Fatal("materialised graphs diverged")
	}
	if !reflect.DeepEqual(ga.Degrees(), degreesInt(a)) {
		t.Fatal("GraphState degree bookkeeping diverged from the edge set")
	}
}

func degreesInt(gs *GraphState) []int {
	return append([]int(nil), gs.degs...)
}

// TestFromFlagsFallbacks: invalid flag values must degrade to safe
// defaults, never abort.
func TestFromFlagsFallbacks(t *testing.T) {
	if cfg := FromFlags(7, 1, "eager"); cfg.Rate != 0 || cfg.Policy != Eager {
		t.Fatalf("out-of-range rate not disabled: %+v", cfg)
	}
	if cfg := FromFlags(math.NaN(), 1, ""); cfg.Rate != 0 || cfg.Policy != DefaultPolicy {
		t.Fatalf("NaN rate not disabled: %+v", cfg)
	}
	if cfg := FromFlags(0.05, 1, "bogus"); cfg.Rate != 0.05 || cfg.Policy != DefaultPolicy {
		t.Fatalf("bad policy not defaulted: %+v", cfg)
	}
	if cfg := FromFlags(0.05, 9, "adaptive"); cfg.Rate != 0.05 || cfg.Seed != 9 ||
		cfg.Policy != Adaptive || cfg.DaysPerEpoch != 1 {
		t.Fatalf("valid flags mangled: %+v", cfg)
	}
}

// Edges returns the current undirected edge count.
func (gs *GraphState) Edges() int { return len(gs.edges) }
