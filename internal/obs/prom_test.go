package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestPromSplit(t *testing.T) {
	cases := []struct {
		in, family, labels string
	}{
		{"serve.requests", "gopim_serve_requests", ""},
		{"http.requests{code=429}", "gopim_http_requests", `code="429"`},
		{
			"accel.makespan_ns{dataset=ddi,model=GoPIM}",
			"gopim_accel_makespan_ns",
			`dataset="ddi",model="GoPIM"`,
		},
		{"pipeline.micro-batches", "gopim_pipeline_micro_batches", ""},
	}
	for _, c := range cases {
		fam, labels := promSplit(c.in)
		if fam != c.family || labels != c.labels {
			t.Errorf("promSplit(%q) = %q, %q; want %q, %q", c.in, fam, labels, c.family, c.labels)
		}
	}
}

func TestWritePrometheusMapping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("serve.requests", Sim, "planning API requests received")
	c.Add(7)
	g := r.NewGauge("http.in_flight", "in flight")
	g.Set(3)
	h := r.NewHistogram("queue.depth", Sim, "queue depth samples")
	h.Observe(1) // bucket 1, le 2
	h.Observe(3) // bucket 2, le 4
	h.Observe(3)
	d := r.NewDistribution("epoch.wall_ns", Wall, "epoch wall time")
	d.Observe(10)
	d.Observe(30)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE gopim_serve_requests_total counter",
		`gopim_serve_requests_total{clock="sim"} 7`,
		"# TYPE gopim_http_in_flight gauge",
		`gopim_http_in_flight{clock="wall"} 3`,
		"# TYPE gopim_queue_depth histogram",
		`gopim_queue_depth_bucket{clock="sim",le="2"} 1`,
		`gopim_queue_depth_bucket{clock="sim",le="4"} 3`,
		`gopim_queue_depth_bucket{clock="sim",le="+Inf"} 3`,
		`gopim_queue_depth_sum{clock="sim"} 7`,
		`gopim_queue_depth_count{clock="sim"} 3`,
		`gopim_epoch_wall_ns_count{clock="wall"} 2`,
		`gopim_epoch_wall_ns_min{clock="wall"} 10`,
		`gopim_epoch_wall_ns_max{clock="wall"} 30`,
		`gopim_epoch_wall_ns_sum{clock="wall"} 40`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if errs := LintPrometheusText(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("exposition does not lint clean: %v", errs)
	}
}

func TestWritePrometheusLabelledSeriesShareFamily(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("http.requests"+LabelSuffix("code", "2xx"), Wall, "responses").Add(5)
	r.NewCounter("http.requests"+LabelSuffix("code", "429"), Wall, "responses").Add(2)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE gopim_http_requests_total counter") != 1 {
		t.Fatalf("labelled series must share one TYPE header:\n%s", out)
	}
	if !strings.Contains(out, `gopim_http_requests_total{code="2xx",clock="wall"} 5`) ||
		!strings.Contains(out, `gopim_http_requests_total{code="429",clock="wall"} 2`) {
		t.Fatalf("labelled samples missing:\n%s", out)
	}
	if errs := LintPrometheusText(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("labelled exposition does not lint clean: %v", errs)
	}
}

func TestWriteRuntimePrometheus(t *testing.T) {
	var b bytes.Buffer
	if err := WriteRuntimePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"gopim_go_goroutines",
		"gopim_go_heap_alloc_bytes",
		"gopim_go_gc_cycles_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime exposition missing %q", want)
		}
	}
	if errs := LintPrometheusText(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("runtime exposition does not lint clean: %v", errs)
	}
}

// TestWritePrometheusDefaultRegistryLints renders whatever the default
// registry has accumulated by this point in the test run — the real
// metric names the daemon exposes — and lints it, so any future metric
// whose name breaks the exposition grammar fails here.
func TestWritePrometheusDefaultRegistryLints(t *testing.T) {
	var b bytes.Buffer
	if err := Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := WriteRuntimePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("# EOF\n")
	if errs := LintPrometheusText(&b); len(errs) != 0 {
		t.Fatalf("default registry exposition does not lint clean: %v", errs)
	}
}
