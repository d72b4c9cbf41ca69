package mapping

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gopim/internal/graphgen"
)

// referenceRank is the ranking's specification: a stable sort of the
// identity permutation by descending degree.
func referenceRank(degrees []float64) []int {
	rank := make([]int, len(degrees))
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool { return degrees[rank[a]] > degrees[rank[b]] })
	return rank
}

// referenceOrder stripes a ranking round-robin over the groups, spilling
// collisions into the first free slot (paper Fig. 11).
func referenceOrder(rank []int, groupSize int) []int {
	n := len(rank)
	groups := numGroups(n, groupSize)
	order := make([]int, n)
	for i := range order {
		order[i] = -1
	}
	next := 0
	for k, v := range rank {
		slot := (k%groups)*groupSize + k/groups
		if slot >= n || order[slot] != -1 {
			for order[next] != -1 {
				next++
			}
			slot = next
		}
		order[slot] = v
	}
	return order
}

// referenceImportant marks the top theta fraction of the reference
// ranking, at least one vertex for theta > 0.
func referenceImportant(degrees []float64, theta float64) []bool {
	rank := referenceRank(degrees)
	k := int(theta * float64(len(rank)))
	if theta > 0 && k == 0 && len(rank) > 0 {
		k = 1
	}
	imp := make([]bool, len(rank))
	for _, v := range rank[:k] {
		imp[v] = true
	}
	return imp
}

// checkRanking compares every consumer of the ranking with the
// sort.SliceStable reference.
func checkRanking(t *testing.T, degs []float64, groupSize int, theta float64, stale int) {
	t.Helper()
	want := referenceRank(degs)
	if got := rankByDegree(degs); !reflect.DeepEqual(got, want) {
		t.Fatalf("rankByDegree(%v) = %v, want %v", degs, got, want)
	}
	ids, keys := make([]int, len(degs)), make([]uint64, len(degs))
	for v, d := range degs {
		ids[v], keys[v] = v, descKey(d)
	}
	sortKeyed(ids, keys, make([]int, len(ids)), make([]uint64, len(keys)))
	if !slices.Equal(ids, want) {
		t.Fatalf("sortKeyed on the keys of %v = %v, want %v", degs, ids, want)
	}
	for j, v := range ids {
		if keys[j] != descKey(degs[v]) {
			t.Fatalf("sortKeyed on the keys of %v: key %d not carried along its id", degs, j)
		}
	}
	l := InterleavedLayout(degs, groupSize)
	if got, want := l.Order, referenceOrder(want, groupSize); !reflect.DeepEqual(got, want) {
		t.Fatalf("InterleavedLayout(%v, %d).Order = %v, want %v", degs, groupSize, got, want)
	}
	wantImp := referenceImportant(degs, theta)
	if got := NewUpdatePlan(degs, theta, stale).Important; !reflect.DeepEqual(got, wantImp) {
		t.Fatalf("NewUpdatePlan(%v, %v).Important = %v, want %v", degs, theta, got, wantImp)
	}
	p := l.UpdatePlan(theta, stale)
	if !reflect.DeepEqual(p.Important, wantImp) || p.Theta != theta || p.StalePeriod != stale {
		t.Fatalf("Layout.UpdatePlan(%v, %d) = %+v, want Important %v", theta, stale, p, wantImp)
	}
}

// decodeDegrees turns fuzz bytes into a degree vector. A byte below
// 0xc0 picks a small integer in [-16, 15] (dense ties, negatives) or,
// for the top 16 of those, one of the IEEE specials; a byte at or above
// 0xc0 takes the next 8 bytes as raw float64 bits. NaN is dropped:
// the ranking's precondition excludes it.
func decodeDegrees(data []byte) []float64 {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.5, 1e300, -1e-300, 2.5,
	}
	var degs []float64
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		var d float64
		switch {
		case b >= 0xc0 && len(data) >= 8:
			d = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		case b >= 0xb0:
			d = specials[b&0xf]
		default:
			d = float64(int(b%32) - 16)
		}
		if !math.IsNaN(d) {
			degs = append(degs, d)
		}
	}
	return degs
}

// rawDegrees encodes degrees in decodeDegrees' raw-bits form.
func rawDegrees(xs ...float64) []byte {
	var data []byte
	for _, x := range xs {
		data = binary.LittleEndian.AppendUint64(append(data, 0xc0), math.Float64bits(x))
	}
	return data
}

// FuzzRankByDegree checks the radix ranking, the interleaved layout
// striped from it and both ways of deriving an ISU plan against the
// sort.SliceStable reference, over vectors with ties, ±0, ±Inf,
// subnormals and negatives.
func FuzzRankByDegree(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint8(128))
	f.Add([]byte{0xb0, 0xb1, 0xb0, 0xb1, 3, 3, 20, 0xb2, 0xb3}, uint8(2), uint8(64))
	f.Add([]byte{0xb4, 0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xbb, 0xbc, 0xbd, 0xbe, 0xbf}, uint8(3), uint8(255))
	f.Add([]byte{0xc0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 5, 5, 5, 0xb1}, uint8(1), uint8(0)) // NaN dropped
	f.Add([]byte{16, 17, 15, 1, 31, 0, 16, 16, 0xc5, 1, 2}, uint8(64), uint8(100))       // short raw tail
	// Keys differing only in their lowest digits: every radix pass counts.
	up := func(x float64, ulps int) float64 {
		for ; ulps > 0; ulps-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		return x
	}
	f.Add(rawDegrees(up(1, 1), 1, up(1, 256), up(1, 2), up(-1, 3), -1, up(-1, 257)), uint8(2), uint8(128))
	f.Fuzz(func(t *testing.T, data []byte, gs, thetaByte uint8) {
		// Longer inputs find nothing shorter ones cannot, and make each
		// minimization of a new interesting input crawl.
		if len(data) > 512 {
			t.Skip()
		}
		degs := decodeDegrees(data)
		checkRanking(t, degs, 1+int(gs%80), float64(thetaByte)/255, 1+int(thetaByte%20))
	})
}

// TestRankByDegreeMatchesReferenceAtScale covers sizes the fuzzer's
// short inputs do not reach: a power-law vector of continuous degrees
// (every radix pass runs) and a rounded one (dense ties, high digits
// skipped).
func TestRankByDegreeMatchesReferenceAtScale(t *testing.T) {
	degs := graphgen.PowerLawWeights(rand.New(rand.NewSource(3)), 20_000, 12, 2.1)
	checkRanking(t, degs, 64, 0.5, 20)
	rounded := make([]float64, len(degs))
	for i, d := range degs {
		rounded[i] = math.Round(d)
	}
	checkRanking(t, rounded, 64, 0.8, 20)
}

// TestUpdatePlanRequiresInterleaved: an index layout carries no ranking
// to derive a plan from.
func TestUpdatePlanRequiresInterleaved(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UpdatePlan on an index layout must panic")
		}
	}()
	IndexLayout(8, 4).UpdatePlan(0.5, 20)
}
