package churn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gopim/internal/graphgen"
)

// refPicker is the picker written the plain way: a prefix sum and a
// binary search per pick.
type refPicker struct {
	prefix []float64
	total  float64
}

func newRefPicker(degs []float64, bias float64) *refPicker {
	p := &refPicker{prefix: make([]float64, len(degs))}
	sum := 0.0
	for i, g := range degs {
		w := g + bias
		if w < 0 {
			w = 0
		}
		sum += w
		p.prefix[i] = sum
	}
	p.total = sum
	return p
}

func (p *refPicker) pick(rng *rand.Rand) int {
	if p.total <= 0 {
		return -1
	}
	x := rng.Float64() * p.total
	return sort.SearchFloat64s(p.prefix, x)
}

// mutateRef is Stream.Mutate written the plain way: fresh pickers and a
// fresh copy of the epoch-start degrees every epoch.
func mutateRef(cfg Config, degs []float64, epoch int) Delta {
	var d Delta
	if !cfg.Enabled() || len(degs) == 0 {
		return d
	}
	rng := rand.New(rand.NewSource(streamSeed(cfg.Seed, tagEpoch, int64(epoch))))
	orig := append([]float64(nil), degs...)
	insert := newRefPicker(degs, 1)
	remove := newRefPicker(degs, 0)
	var totalDeg float64
	for _, g := range degs {
		totalDeg += g
	}
	ops := int(math.Round(cfg.Rate * totalDeg / 2))
	for op := 0; op < ops; op++ {
		if rng.Float64() < 0.5 {
			u, v := insert.pick(rng), insert.pick(rng)
			if u == v {
				continue
			}
			degs[u]++
			degs[v]++
			d.EdgesAdded++
		} else {
			u, v := remove.pick(rng), remove.pick(rng)
			if u < 0 || v < 0 || u == v || degs[u] < 1 || degs[v] < 1 {
				continue
			}
			degs[u]--
			degs[v]--
			d.EdgesRemoved++
		}
	}
	for v := range degs {
		if degs[v] != orig[v] {
			d.Changed = append(d.Changed, v)
		}
	}
	return d
}

// checkPicker compares search against sort.SearchFloat64s at 0, the
// total, every prefix value and its float neighbours inside [0, total],
// and random points.
func checkPicker(t *testing.T, degs []float64, bias float64, rng *rand.Rand) {
	t.Helper()
	var p picker
	p.reset(degs, bias)
	ref := newRefPicker(degs, bias)
	if !slices.Equal(p.prefix, ref.prefix) || p.total != ref.total {
		t.Fatalf("bias %v: prefix sums differ from the reference", bias)
	}
	if p.total <= 0 {
		if got := p.pick(rng); got != -1 {
			t.Fatalf("all-zero weights: pick %d, want -1", got)
		}
		return
	}
	xs := []float64{0, p.total, math.Nextafter(p.total, 0)}
	for _, c := range p.prefix {
		xs = append(xs, c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)))
	}
	for range 200 {
		xs = append(xs, rng.Float64()*p.total)
	}
	for _, x := range xs {
		if x < 0 || x > p.total {
			continue
		}
		if got, want := p.search(x), sort.SearchFloat64s(ref.prefix, x); got != want {
			t.Fatalf("bias %v, n=%d: search(%v) = %d, SearchFloat64s = %d", bias, len(degs), x, got, want)
		}
	}
}

func TestPickerMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := map[string][]float64{
		"one":      {5},
		"zeros":    {0, 0, 0},
		"ties":     {2, 2, 2, 2, 2, 2},
		"zero-run": {0, 0, 3, 0, 0, 0, 1, 0, 0, 7, 0},
		"hub":      {1000, 1, 1, 1, 1, 1, 1, 1},
		"tail-hub": {1, 1, 1, 1, 1, 1, 1, 1000},
		"negative": {-3, 2, -1, 4},
		"fraction": {0.1, 0.2, 0.30000000000000004, 1e-300, 0.7},
		"tiny":     {1e-320, 0, 1e-320},
		"degseq":   degSeq(500, 8),
	}
	for name, degs := range cases {
		for _, bias := range []float64{0, 1} {
			t.Run(name, func(t *testing.T) { checkPicker(t, degs, bias, rng) })
		}
	}
	// Reuse across shapes: a long picker reset to a shorter one must not
	// read stale entries.
	var p picker
	p.reset(degSeq(300, 1), 1)
	short := []float64{4, 0, 1}
	p.reset(short, 0)
	for x := 0.0; x <= 5; x += 0.5 {
		if got, want := p.search(x), sort.SearchFloat64s(newRefPicker(short, 0).prefix, x); got != want {
			t.Fatalf("reused picker: search(%v) = %d, want %d", x, got, want)
		}
	}
}

// FuzzPickerMatchesSearch runs checkPicker over fuzzed weight shapes:
// seed drives the weights, n (1–1000) the length, zeroEvery (0 = none)
// how often a weight is forced to zero, and spread how skewed the
// weights are (0 = all equal, a tie on every prefix step).
func FuzzPickerMatchesSearch(f *testing.F) {
	f.Add(int64(1), uint16(10), uint8(0), uint8(0))
	f.Add(int64(2), uint16(300), uint8(3), uint8(40))
	f.Add(int64(3), uint16(1000), uint8(1), uint8(9))
	f.Add(int64(4), uint16(64), uint8(2), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, zeroEvery, spread uint8) {
		n := 1 + int(n16)%1000
		rng := rand.New(rand.NewSource(seed))
		degs := make([]float64, n)
		for i := range degs {
			degs[i] = 1
			if spread > 0 {
				degs[i] = math.Floor(math.Pow(rng.Float64(), -float64(spread)/32))
			}
			if zeroEvery > 0 && rng.Intn(int(zeroEvery)+1) == 0 {
				degs[i] = 0
			}
		}
		checkPicker(t, degs, 0, rng)
		checkPicker(t, degs, 1, rng)
	})
}

// signedDegrees returns n degrees from seed: a power-law body with hubs,
// runs of zeros stored as −0 and +0 alternately, zero-weight vertices
// under both pickers (degree −1 and below) and ties. Every shape a
// reset, a pick or the changed-id scan treats specially is in it.
func signedDegrees(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	degs := make([]float64, n)
	for i := range degs {
		switch r := rng.Intn(10); {
		case r < 2:
			degs[i] = math.Copysign(0, float64(i%2)-0.5) // −0 at even ids
		case r < 3:
			degs[i] = -float64(1 + rng.Intn(3))
		case r < 4:
			degs[i] = 5 // a tie class
		default:
			degs[i] = math.Floor(math.Pow(rng.Float64(), -1.2))
		}
	}
	return degs
}

func TestMutateMatchesReference(t *testing.T) {
	arxiv, err := graphgen.ByName("arxiv")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]float64{
		"small":  degSeq(400, 4),
		"signed": signedDegrees(700, 9),
		"arxiv":  arxiv.SynthDegreeModel(1).DegreesByIndex,
	}
	for name, degs := range cases {
		cfg := Config{Rate: 0.01, Seed: 5}
		got, want := slices.Clone(degs), slices.Clone(degs)
		s := newStream(t, cfg)
		for e := 0; e < 10; e++ {
			checkMutate(t, name, s, cfg, got, want, e)
		}
	}
	// One stream over many epochs and over sequences of different
	// lengths: the touched-id bitset and the saved degrees must carry
	// nothing from one epoch into the next.
	cfg := Config{Rate: 0.05, Seed: 6}
	s := newStream(t, cfg)
	for i, n := range []int{300, 300, 64, 1000} {
		degs := signedDegrees(n, int64(20+i))
		got, want := slices.Clone(degs), slices.Clone(degs)
		for e := 0; e < 40; e++ {
			checkMutate(t, fmt.Sprintf("reused n=%d", n), s, cfg, got, want, 40*i+e)
		}
	}
}

// checkMutate runs epoch e on got through s and on want through
// mutateRef and fails unless the deltas and the degrees agree bit for
// bit (−0 and +0 differ).
func checkMutate(t *testing.T, name string, s *Stream, cfg Config, got, want []float64, e int) {
	t.Helper()
	dg, dw := s.Mutate(got, e), mutateRef(cfg, want, e)
	if !reflect.DeepEqual(dg, dw) {
		t.Fatalf("%s epoch %d: delta %+v, reference %+v", name, e, dg, dw)
	}
	for v := range got {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s epoch %d: degree %d is %v, reference %v", name, e, v, got[v], want[v])
		}
	}
}

// FuzzMutateMatchesReference runs checkMutate over fuzzed degree
// shapes, one stream reused for every epoch: seed drives the degrees,
// n (1–2000) the length and epochs (1–32) the chain. hubEvery (0 =
// none) plants a hub every that many ids, zeroRun (0 = none) writes
// zero runs of that length, signed zeros alternate +0 and −0, and
// ties draws every other degree from a few values.
func FuzzMutateMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(3), uint8(0), uint8(0), false, false)
	f.Add(int64(2), uint16(700), uint8(20), uint8(97), uint8(5), true, false)
	f.Add(int64(3), uint16(1), uint8(8), uint8(0), uint8(1), true, true)
	f.Add(int64(4), uint16(2000), uint8(4), uint8(13), uint8(40), false, true)
	f.Add(int64(5), uint16(64), uint8(31), uint8(1), uint8(0), true, true)
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, epochs8, hubEvery, zeroRun uint8, signed, ties bool) {
		n := 1 + int(n16)%2000
		rng := rand.New(rand.NewSource(seed))
		degs := make([]float64, n)
		for i := range degs {
			degs[i] = math.Floor(math.Pow(rng.Float64(), -1.5))
			if ties && i%2 == 0 {
				degs[i] = float64(rng.Intn(3))
			}
			if hubEvery > 0 && i%int(hubEvery) == 0 {
				degs[i] = float64(100 + rng.Intn(900))
			}
		}
		if zeroRun > 0 {
			for start := rng.Intn(n); start < n; start += 3 * int(zeroRun) {
				for i := start; i < min(n, start+int(zeroRun)); i++ {
					degs[i] = 0
					if signed && i%2 == 1 {
						degs[i] = math.Copysign(0, -1)
					}
				}
			}
		}
		cfg := Config{Rate: 0.02, Seed: seed}
		s := newStream(t, cfg)
		got, want := slices.Clone(degs), slices.Clone(degs)
		for e := 0; e < 1+int(epochs8)%32; e++ {
			checkMutate(t, "fuzz", s, cfg, got, want, e)
		}
	})
}
