package bench

import (
	"bytes"
	"strings"
	"testing"
)

func sim(name, field, value string) MetricValue {
	return MetricValue{Name: name, Kind: "distribution", Field: field, Value: value}
}

func labelled(base, dataset, model, field, value string) MetricValue {
	return sim(base+"{dataset="+dataset+",model="+model+"}", field, value)
}

func stageIdle(dataset, model, stage, value string) MetricValue {
	return sim("accel.stage_idle_frac{dataset="+dataset+",model="+model+",stage="+stage+"}",
		"max", value)
}

func attribMetrics() []MetricValue {
	return []MetricValue{
		labelled("accel.makespan_ns", "ddi", "Serial", "max", "2e8"),
		labelled("accel.makespan_ns", "ddi", "Serial", "count", "1"),
		labelled("accel.energy_pj", "ddi", "Serial", "max", "5e7"),
		labelled("accel.crossbars_used", "ddi", "Serial", "max", "1196"),
		labelled("accel.update_frac", "ddi", "Serial", "max", "1"),
		stageIdle("ddi", "Serial", "CO1", "0.99"),
		stageIdle("ddi", "Serial", "AG1", "0.5"),
		labelled("accel.makespan_ns", "ddi", "GoPIM", "max", "3e5"),
		labelled("accel.energy_pj", "ddi", "GoPIM", "max", "3e7"),
		labelled("accel.crossbars_used", "ddi", "GoPIM", "max", "2043676"),
		labelled("accel.update_frac", "ddi", "GoPIM", "max", "0.52"),
		stageIdle("ddi", "GoPIM", "CO1", "0.975"),
		stageIdle("ddi", "GoPIM", "AG1", "0.87"),
		sim("gcn.rows_rewritten", "count", "5200"),
		sim("gcn.rows_total", "count", "10000"),
		// Unlabelled aggregates must not create rows.
		sim("accel.makespan_ns", "max", "2e8"),
	}
}

func TestAttributionPivot(t *testing.T) {
	res, err := Attribution(attribMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (one per {dataset,model}):\n%+v", len(res.Rows), res.Rows)
	}
	// Paper model order: Serial before GoPIM.
	if res.Rows[0][1] != "Serial" || res.Rows[1][1] != "GoPIM" {
		t.Errorf("model order = %q, %q", res.Rows[0][1], res.Rows[1][1])
	}
	// Stage columns in dataflow order: CO1 before AG1.
	co := -1
	ag := -1
	for i, h := range res.Header {
		switch h {
		case "idle CO1":
			co = i
		case "idle AG1":
			ag = i
		}
	}
	if co < 0 || ag < 0 || co > ag {
		t.Errorf("stage columns out of dataflow order: %v", res.Header)
	}
	var b bytes.Buffer
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"52%", "99.0%", "5200 of 10000"} {
		if !strings.Contains(out, want) {
			t.Errorf("attribution missing %q:\n%s", want, out)
		}
	}
}

// Fault counters in the snapshot surface as a note; their absence (the
// default, fault-free case) leaves the report without one.
func TestAttributionFaultNote(t *testing.T) {
	res, err := Attribution(attribMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Notes {
		if strings.Contains(n, "fault injection") {
			t.Fatalf("fault note in a fault-free snapshot: %q", n)
		}
	}

	withFaults := append(attribMetrics(),
		sim("accel.faulty_cells", "count", "8400"),
		sim("accel.write_retries", "count", "120000"),
		sim("accel.crossbars_retired", "count", "37"),
		sim("accel.alloc_degraded", "count", "2"),
	)
	res, err = Attribution(withFaults)
	if err != nil {
		t.Fatal(err)
	}
	var note string
	for _, n := range res.Notes {
		if strings.Contains(n, "fault injection") {
			note = n
		}
	}
	if note == "" {
		t.Fatalf("no fault note despite fault counters; notes: %v", res.Notes)
	}
	for _, want := range []string{"8400", "120000", "37 crossbars retired", "2 degraded"} {
		if !strings.Contains(note, want) {
			t.Errorf("fault note missing %q: %q", want, note)
		}
	}
}

func TestAttributionRejectsUnlabelledSnapshot(t *testing.T) {
	if _, err := Attribution([]MetricValue{sim("pipeline.simulations", "count", "3")}); err == nil {
		t.Error("snapshot without labelled accel series accepted")
	}
}

func TestAttributionConfigPicksRichest(t *testing.T) {
	f := &File{
		Schema: Schema,
		Configs: []ConfigResult{
			{Name: "experiments", SimMetrics: []MetricValue{sim("pipeline.simulations", "count", "1")}},
			{Name: "sim-matrix", SimMetrics: attribMetrics()},
		},
	}
	c, err := AttributionConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "sim-matrix" {
		t.Errorf("picked %q, want sim-matrix", c.Name)
	}
	if _, err := AttributionConfig(&File{}); err == nil {
		t.Error("empty file accepted")
	}
}

func TestParseLabels(t *testing.T) {
	base, labels := parseLabels("accel.makespan_ns{dataset=ddi,model=GoPIM}")
	if base != "accel.makespan_ns" || labels["dataset"] != "ddi" || labels["model"] != "GoPIM" {
		t.Errorf("parseLabels = %q %v", base, labels)
	}
	if base, labels := parseLabels("plain.metric"); base != "plain.metric" || labels != nil {
		t.Errorf("plain name = %q %v", base, labels)
	}
}

// The explain series add bottleneck columns — and only when present,
// so pre-explain snapshots keep their exact shape.
func TestAttributionBottleneckColumns(t *testing.T) {
	// Without the series: no bottleneck header.
	res, err := Attribution(attribMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Header {
		if h == "bottleneck" {
			t.Fatalf("bottleneck column without explain series: %v", res.Header)
		}
	}

	metrics := append(attribMetrics(),
		sim("accel.crit_share{dataset=ddi,model=GoPIM,stage=CO1}", "max", "0.1"),
		sim("accel.crit_share{dataset=ddi,model=GoPIM,stage=AG1}", "max", "0.9"),
		sim("accel.bubble_ns{dataset=ddi,model=GoPIM,class=fill}", "max", "100"),
		sim("accel.bubble_ns{dataset=ddi,model=GoPIM,class=starve}", "max", "900"),
	)
	res, err = Attribution(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"bottleneck", "crit %", "top bubble", "AG1", "90.0%", "starve"} {
		if !strings.Contains(out, want) {
			t.Errorf("bottleneck report missing %q:\n%s", want, out)
		}
	}
	// The Serial row carried no explain series: blank cells, no panic.
	last := res.Rows[0]
	if got := last[len(last)-3:]; got[0] != "" || got[1] != "" || got[2] != "" {
		t.Errorf("row without explain series must render blank: %v", got)
	}
}
