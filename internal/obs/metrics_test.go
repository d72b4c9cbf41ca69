package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestCounterGaugeFields(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("a.count", Sim, "test")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.NewGauge("a.gauge", "test")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	if g.Clock() != Wall {
		t.Fatal("gauges must be wall-clock")
	}
}

func TestDistributionFields(t *testing.T) {
	r := NewRegistry()
	d := r.NewDistribution("d", Sim, "")
	if got := d.Fields(); len(got) != 1 || got[0].Value != "0" {
		t.Fatalf("empty distribution fields = %v", got)
	}
	d.Observe(3)
	d.Observe(-1)
	d.Observe(7)
	if d.Count() != 3 || d.Min() != -1 || d.Max() != 7 {
		t.Fatalf("count/min/max = %d/%v/%v", d.Count(), d.Min(), d.Max())
	}
	// Sim distributions omit the order-sensitive sum.
	for _, f := range d.Fields() {
		if f.Key == "sum" {
			t.Fatal("sim distribution must not render a float sum")
		}
	}
	dw := r.NewDistribution("dw", Wall, "")
	dw.Observe(2)
	found := false
	for _, f := range dw.Fields() {
		if f.Key == "sum" {
			found = true
		}
	}
	if !found {
		t.Fatal("wall distribution should render its sum")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", Sim, "")
	for _, v := range []int64{0, 1, 1, 3, 1024, -5} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1+1+3+1024 {
		t.Fatalf("sum = %d", h.Sum())
	}
	fields := map[string]string{}
	for _, f := range h.Fields() {
		fields[f.Key] = f.Value
	}
	// 0 and -5 → bucket 0; 1,1 → bucket 1; 3 → bucket 2; 1024 → bucket 11.
	for k, want := range map[string]string{"lt_2e0": "2", "lt_2e1": "2", "lt_2e2": "1", "lt_2e11": "1"} {
		if fields[k] != want {
			t.Fatalf("bucket %s = %q, want %q (all: %v)", k, fields[k], want, fields)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q", Sim, "")
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	// 100 observations of 100 (bucket 7, [64, 128)) and one outlier at
	// 100000 (bucket 17): p50 must land in the body bucket, p99+ may
	// reach the outlier's.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	h.Observe(100000)
	p50 := h.Quantile(0.50)
	if p50 < 64 || p50 >= 128 {
		t.Errorf("p50 = %v, want within [64, 128)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	if p100 := h.Quantile(1); p100 < 65536 || p100 >= 131072 {
		t.Errorf("max quantile = %v, want within the outlier's [65536, 131072) bucket", p100)
	}
	// All-zero observations sit in bucket 0, which reads as 0.
	z := r.NewHistogram("z", Sim, "")
	z.Observe(0)
	z.Observe(-3)
	if got := z.Quantile(0.99); got != 0 {
		t.Errorf("non-positive histogram p99 = %v", got)
	}
	// Quantiles render into the snapshot once observations exist.
	fields := map[string]string{}
	for _, f := range h.Fields() {
		fields[f.Key] = f.Value
	}
	for _, k := range []string{"p50", "p95", "p99"} {
		if fields[k] == "" {
			t.Errorf("histogram fields missing %s: %v", k, fields)
		}
	}
}

// Quantile estimates must be a pure function of the bucket counts:
// concurrent observation in any order yields the same values.
func TestHistogramQuantileDeterministicUnderConcurrency(t *testing.T) {
	render := func() []Field {
		r := NewRegistry()
		h := r.NewHistogram("h", Sim, "")
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					h.Observe(int64((w*500 + i) % 1000))
				}
			}(w)
		}
		wg.Wait()
		return h.Fields()
	}
	want := render()
	for i := 0; i < 3; i++ {
		got := render()
		if len(got) != len(want) {
			t.Fatalf("field count drifted: %v vs %v", got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("field %d drifted: %v vs %v", j, got[j], want[j])
			}
		}
	}
}

func TestRegistryGetOrCreateAndMismatchPanics(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x", Sim, "")
	b := r.NewCounter("x", Sim, "")
	if a != b {
		t.Fatal("same name+kind must return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.NewGauge("x", "")
}

func TestSnapshotSortedAndFiltered(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("b.sim", Sim, "").Inc()
	r.NewCounter("a.sim", Sim, "").Inc()
	r.NewTimer("c.wall", "").ObserveDuration(5)
	sim := r.Snapshot(Sim)
	if len(sim) != 2 || sim[0].Name != "a.sim" || sim[1].Name != "b.sim" {
		t.Fatalf("sim snapshot = %+v", sim)
	}
	all := r.Snapshot()
	if len(all) != 3 {
		t.Fatalf("full snapshot has %d metrics", len(all))
	}
}

func TestConcurrentObservationDeterministicSimSnapshot(t *testing.T) {
	render := func() string {
		r := NewRegistry()
		c := r.NewCounter("c", Sim, "")
		d := r.NewDistribution("d", Sim, "")
		h := r.NewHistogram("h", Sim, "")
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					c.Add(int64(i % 3))
					d.Observe(float64(i%17) * 1.5)
					h.Observe(int64(i % 100))
				}
			}(w)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := r.WriteText(&buf, Sim); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render()
	for i := 0; i < 4; i++ {
		if got := render(); got != want {
			t.Fatalf("sim snapshot differs across schedulings:\n%s\nvs\n%s", got, want)
		}
	}
}

func TestWriteFormats(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("m.count", Sim, "").Add(3)
	r.NewDistribution("m.dist", Sim, "").Observe(1.25)
	r.NewCounter("m.wall", Wall, "").Inc()

	var text bytes.Buffer
	if err := r.WriteText(&text, Sim); err != nil {
		t.Fatal(err)
	}
	want := "m.count counter count=3\nm.dist distribution count=1 min=1.25 max=1.25\n"
	if text.String() != want {
		t.Fatalf("text:\n%s\nwant:\n%s", text.String(), want)
	}
}

func TestResetZeroesValues(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", Sim, "")
	d := r.NewDistribution("d", Sim, "")
	c.Add(7)
	d.Observe(9)
	r.Reset()
	if c.Value() != 0 || d.Count() != 0 {
		t.Fatalf("reset left c=%d d=%d", c.Value(), d.Count())
	}
	d.Observe(2)
	if d.Min() != 2 || d.Max() != 2 {
		t.Fatalf("post-reset min/max = %v/%v", d.Min(), d.Max())
	}
}

func TestLabelSuffix(t *testing.T) {
	got := LabelSuffix("dataset", "ddi", "model", "GoPIM")
	if got != "{dataset=ddi,model=GoPIM}" {
		t.Fatalf("LabelSuffix = %q", got)
	}
}

func TestWarnfWritesAndCounts(t *testing.T) {
	var buf bytes.Buffer
	restore := SetWarnOutput(&buf)
	defer restore()
	before := warnings.Value()
	Warnf("testcomp", "value %d ignored", 42)
	if warnings.Value() != before+1 {
		t.Fatal("warning not counted")
	}
	if got := buf.String(); got != "gopim: warn [testcomp]: value 42 ignored\n" {
		t.Fatalf("warn output = %q", got)
	}
}
