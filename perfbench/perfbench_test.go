package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"gopim/internal/accel"
	"gopim/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric tables")

func TestScriptDeterministicPerSeed(t *testing.T) {
	a, b := genScript(7, planRequests), genScript(7, planRequests)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two scripts from seed 7 differ")
	}
	if reflect.DeepEqual(a.order, genScript(8, planRequests).order) {
		t.Fatal("seeds 7 and 8 gave the same request order")
	}
}

func TestScriptShape(t *testing.T) {
	s := genScript(3, planRequests)
	if got, want := len(s.keys), int(math.Round(planRequests*planNewKeyFrac)); got != want {
		t.Fatalf("%d distinct keys, want %d", got, want)
	}
	seen := map[int]bool{}
	for i, k := range s.order {
		if k < 0 || k >= len(s.keys) {
			t.Fatalf("request %d asks key %d of %d", i, k, len(s.keys))
		}
		if !seen[k] && k != len(seen) {
			t.Fatalf("request %d introduces key %d before key %d", i, k, len(seen))
		}
		seen[k] = true
	}
	var sim, expl, pred, custom int
	for _, k := range s.keys {
		if k.Simulate {
			sim++
		}
		if k.Explain {
			expl++
		}
		if k.UsePredictor {
			pred++
			if k.Seed != s.predSeed {
				t.Errorf("use_predictor key has seed %d, want the pre-trained %d", k.Seed, s.predSeed)
			}
		}
		if k.Graph != nil {
			custom++
			if v := k.Graph.Vertices; v < 10_000 || v > 300_000 {
				t.Errorf("custom graph with %d vertices", v)
			}
		}
	}
	n := len(s.keys)
	if sim != (n+2)/4 || expl != n/10 || pred != n/10 || custom != n-n/5 {
		t.Fatalf("mix simulate %d explain %d predictor %d custom %d of %d keys", sim, expl, pred, custom, n)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	xs = append(xs, 1000)
	if p, err := percentile(xs, 99); err != nil || p != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", p, err)
	}
	if p, err := percentile(xs[:20], 50); err != nil || p != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", p, err)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"sort.insertionSort", "sort.SliceStable", "gopim/internal/mapping.InterleavedLayout"}, "mapping"},
		{[]string{"gopim/internal/tensor.matMulBlock", "gopim/internal/gcn.(*Model).forward"}, "tensor"},
		{[]string{"gopim/internal/gcn.Train.func1", "gopim/internal/parallel.For.func1"}, "gcn"},
		{[]string{"gopim/internal/parallel.For", "gopim/internal/experiments.runTab5"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "gopim/internal/mapping.NewUpdatePlan"}, "gc"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
	} {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// pb is a minimal protobuf writer for building fixture profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(binary.AppendUvarint(p.b, uint64(num)<<3), v)
	return p
}

func (p *pb) bytes(num int, data []byte) *pb {
	p.b = binary.AppendUvarint(binary.AppendUvarint(p.b, uint64(num)<<3|2), uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestModuleSharesFixtureProfile(t *testing.T) {
	names := []string{"", "sort.SliceStable", "gopim/internal/mapping.InterleavedLayout",
		"gopim/internal/tensor.matMulBlock", "gopim/internal/gcn.Train", "runtime.gcBgMarkWorker", "main.main"}
	prof := &pb{}
	for i := 1; i < len(names); i++ {
		prof.bytes(5, (&pb{}).varint(1, uint64(i)).varint(2, uint64(i)).b) // function i named names[i]
	}
	// Location 1 inlines sort.SliceStable into mapping.InterleavedLayout.
	prof.bytes(4, (&pb{}).varint(1, 1).bytes(4, (&pb{}).varint(1, 1).b).bytes(4, (&pb{}).varint(1, 2).b).b)
	for loc, fn := range map[uint64]uint64{2: 3, 3: 4, 4: 5, 5: 6} {
		prof.bytes(4, (&pb{}).varint(1, loc).bytes(4, (&pb{}).varint(1, fn).b).b)
	}
	sample := func(ns uint64, locs ...uint64) {
		prof.bytes(2, (&pb{}).bytes(1, packed(locs...)).bytes(2, packed(1, ns)).b)
	}
	sample(60, 1)    // mapping, via an inlined stdlib sort
	sample(20, 2, 3) // tensor under gcn
	sample(10, 4)    // gc
	// An unpacked sample: main.main only.
	prof.bytes(2, (&pb{}).varint(1, 5).varint(2, 1).varint(2, 10).b)
	for _, n := range names {
		prof.bytes(6, []byte(n))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	shares, n, err := moduleShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"mapping": 0.6, "tensor": 0.2, "gc": 0.1, "other": 0.1}
	if n != 4 || !reflect.DeepEqual(shares, want) {
		t.Fatalf("shares %v over %d samples, want %v over 4", shares, n, want)
	}
	if _, _, err := moduleShares(prof.b[:len(prof.b)-3]); err == nil {
		t.Fatal("truncated profile accepted")
	}
}

func TestDigestCheckCatchesMutatedOutput(t *testing.T) {
	results := []*experiments.Result{{ID: "fig7", Title: "t", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}}
	ref, err := sweepDigest(results)
	if err != nil {
		t.Fatal(err)
	}
	results[0].Rows[0][1] = "3"
	got, _ := sweepDigest(results)
	if err := checkDigest(ref, got); !errors.Is(err, errDigest) {
		t.Fatalf("mutated sweep output passed: %v", err)
	}

	res := accel.ChurnResult{Dataset: "arxiv", Epochs: []accel.ChurnEpoch{{Epoch: 0, StripesMoved: 5}}}
	ref, _ = churnDigest(res)
	res.Epochs[0].StripesMoved = 6
	got, _ = churnDigest(res)
	if err := checkDigest(ref, got); !errors.Is(err, errDigest) {
		t.Fatalf("mutated churn result passed: %v", err)
	}

	runs := []rep{{report: childReport{Digest: "aa", Attempted: 10}}, {report: childReport{Digest: "ab", Attempted: 10}}}
	if p, n := checkRuns("plan", -99, runs); len(p) != 1 || n != 10 {
		t.Fatalf("disagreeing runs gave problems %v failing %d operations, want one failing 10", p, n)
	}
	runs[1].report.Cold = map[string]int64{"serve.plans_computed": 3}
	runs[1].report.Digest = "aa"
	if p, n := checkRuns("plan", -99, runs); len(p) != 1 || n != 10 {
		t.Fatalf("warm second run gave problems %v failing %d operations, want one failing 10", p, n)
	}
	if p, n := checkRuns("churn", 1, []rep{{report: childReport{Digest: "aa", Attempted: 40}}}); len(p) != 1 || n != 40 {
		t.Fatalf("run off the recorded seed-1 digest gave problems %v failing %d operations", p, n)
	}
}

func TestCheckPlan(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"stages":[{"name":"a","replicas":2}]}`: true,
		`{"stages":[]}`:                          false,
		`{"stages":[{"name":"a","replicas":1},{"name":"b","replicas":0}]}`: false,
		`not json`: false,
	} {
		if err := checkPlan([]byte(body)); (err == nil) != ok {
			t.Errorf("checkPlan(%s) = %v", body, err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	l := &ledger{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "c", Parent: 2, Start: 35, End: 45},
	}}
	got := l.selfTimes()
	want := map[string]time.Duration{"root": 50, "a": 30, "b": 20, "c": 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// benchmarkFile is BENCHMARK.json as the metric and workload tables
// define it.
func benchmarkFile() map[string]any {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var e2e, layers []metric
	for _, d := range endToEnd {
		e2e = append(e2e, metric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		layers = append(layers, metric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	return map[string]any{
		"command":     []string{"bash", "perfbench/run.sh"},
		"paths":       []string{"perfbench"},
		"run_seconds": runSeconds,
		"workloads":   wls,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(benchmarkFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is out of date with the metric tables; rerun with -update")
	}
}
