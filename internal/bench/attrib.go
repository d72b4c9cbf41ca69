package bench

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gopim/internal/accel"
	"gopim/internal/experiments"
)

// parseLabels splits a labelled metric name ("accel.makespan_ns
// {dataset=ddi,model=GoPIM}") into its base name and label map; plain
// names return a nil map.
func parseLabels(name string) (base string, labels map[string]string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	base = name[:i]
	labels = map[string]string{}
	for _, kv := range strings.Split(name[i+1:len(name)-1], ",") {
		if k, v, ok := strings.Cut(kv, "="); ok {
			labels[k] = v
		}
	}
	return base, labels
}

// stageOrder ranks stage kinds in dataflow order; stage names are
// kind + layer number ("CO1", "AG2"), so columns sort by layer first
// and kind within the layer. Unknown kinds sort after, alphabetically.
var stageOrder = map[string]int{"CO": 0, "AG": 1, "LC": 2, "GC": 3}

// stageSortKey splits a stage name into (layer, kind rank, name) for
// dataflow-ordered columns.
func stageSortKey(name string) (layer, kind int, known bool) {
	base := strings.TrimRight(name, "0123456789")
	layer, _ = strconv.Atoi(name[len(base):])
	kind, known = stageOrder[base]
	return layer, kind, known
}

// modelOrder ranks models in the paper's Fig. 13/14 order.
var modelOrder = func() map[string]int {
	order := map[string]int{}
	for i, k := range accel.Kinds() {
		order[k.String()] = i
	}
	return order
}()

// attribRow accumulates one {dataset, model} cell of the pivot.
type attribRow struct {
	dataset, model string
	makespanNS     float64
	energyPJ       float64
	crossbars      float64
	updateFrac     float64
	hasUpdateFrac  bool
	idle           map[string]float64 // stage -> idle fraction
	crit           map[string]float64 // stage -> critical-path share
	bubble         map[string]float64 // bubble class -> idle ns
}

// Attribution pivots the per-{dataset, model} accelerator series of a
// Sim snapshot into a "where did the time and energy go" table: one
// row per simulated {dataset, model} with its makespan, energy,
// crossbar footprint, per-stage idle fractions (the busy/idle split of
// the paper's Figs. 4/15) and the ISU row-update fraction. The global
// gcn.rows_rewritten/rows_total counters, when present, land in the
// notes as the training-side write-traffic figure.
func Attribution(metrics []MetricValue) (*experiments.Result, error) {
	rows := map[string]*attribRow{}
	stages := map[string]bool{}
	var rowsRewritten, rowsTotal float64
	var faultyCells, writeRetries, retired, degraded float64
	hasExplain := false
	get := func(labels map[string]string) *attribRow {
		key := labels["dataset"] + "\x00" + labels["model"]
		r := rows[key]
		if r == nil {
			r = &attribRow{
				dataset: labels["dataset"], model: labels["model"],
				idle: map[string]float64{},
				crit: map[string]float64{}, bubble: map[string]float64{},
			}
			rows[key] = r
		}
		return r
	}
	for _, m := range metrics {
		base, labels := parseLabels(m.Name)
		if labels == nil {
			switch {
			case m.Name == "gcn.rows_rewritten" && m.Field == "count":
				rowsRewritten, _ = strconv.ParseFloat(m.Value, 64)
			case m.Name == "gcn.rows_total" && m.Field == "count":
				rowsTotal, _ = strconv.ParseFloat(m.Value, 64)
			case m.Name == "accel.faulty_cells" && m.Field == "count":
				faultyCells, _ = strconv.ParseFloat(m.Value, 64)
			case m.Name == "accel.write_retries" && m.Field == "count":
				writeRetries, _ = strconv.ParseFloat(m.Value, 64)
			case m.Name == "accel.crossbars_retired" && m.Field == "count":
				retired, _ = strconv.ParseFloat(m.Value, 64)
			case m.Name == "accel.alloc_degraded" && m.Field == "count":
				degraded, _ = strconv.ParseFloat(m.Value, 64)
			}
			continue
		}
		// Distributions render min and max; for a repeated deterministic
		// observation both are the value itself — read max.
		if m.Field != "max" {
			continue
		}
		v, err := strconv.ParseFloat(m.Value, 64)
		if err != nil {
			continue
		}
		switch base {
		case "accel.makespan_ns":
			get(labels).makespanNS = v
		case "accel.energy_pj":
			get(labels).energyPJ = v
		case "accel.crossbars_used":
			get(labels).crossbars = v
		case "accel.update_frac":
			r := get(labels)
			r.updateFrac, r.hasUpdateFrac = v, true
		case "accel.stage_idle_frac":
			stage := labels["stage"]
			stages[stage] = true
			get(labels).idle[stage] = v
		case "accel.crit_share":
			hasExplain = true
			get(labels).crit[labels["stage"]] = v
		case "accel.bubble_ns":
			hasExplain = true
			get(labels).bubble[labels["class"]] = v
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("bench: no per-{dataset,model} accel series in snapshot (was the run recorded with observability enabled?)")
	}

	stageCols := make([]string, 0, len(stages))
	for s := range stages {
		stageCols = append(stageCols, s)
	}
	sort.Slice(stageCols, func(i, j int) bool {
		li, ki, iOK := stageSortKey(stageCols[i])
		lj, kj, jOK := stageSortKey(stageCols[j])
		switch {
		case iOK && jOK:
			if li != lj {
				return li < lj
			}
			return ki < kj
		case iOK != jOK:
			return iOK
		}
		return stageCols[i] < stageCols[j]
	})

	ordered := make([]*attribRow, 0, len(rows))
	for _, r := range rows {
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.dataset != b.dataset {
			return a.dataset < b.dataset
		}
		oa, aOK := modelOrder[a.model]
		ob, bOK := modelOrder[b.model]
		switch {
		case aOK && bOK:
			return oa < ob
		case aOK != bOK:
			return aOK
		}
		return a.model < b.model
	})

	res := &experiments.Result{
		ID:     "attrib",
		Title:  "stage-level time/energy attribution",
		Header: []string{"dataset", "model", "makespan (ms)", "energy (uJ)", "crossbars", "upd rows"},
	}
	for _, s := range stageCols {
		res.Header = append(res.Header, "idle "+s)
	}
	// Bottleneck columns appear only when the snapshot carries the
	// explain series, so pre-explain BENCH files render unchanged.
	if hasExplain {
		res.Header = append(res.Header, "bottleneck", "crit %", "top bubble")
	}
	for _, r := range ordered {
		upd := ""
		if r.hasUpdateFrac {
			upd = fmt.Sprintf("%.0f%%", r.updateFrac*100)
		}
		row := []string{
			r.dataset, r.model,
			fmt.Sprintf("%.4g", r.makespanNS/1e6),
			fmt.Sprintf("%.4g", r.energyPJ/1e6),
			fmt.Sprintf("%.0f", r.crossbars),
			upd,
		}
		for _, s := range stageCols {
			if frac, ok := r.idle[s]; ok {
				row = append(row, fmt.Sprintf("%.1f%%", frac*100))
			} else {
				row = append(row, "")
			}
		}
		if hasExplain {
			row = append(row, bottleneckCells(r)...)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"idle columns are per-stage idle fractions (paper Figs. 4/15); 'upd rows' is the steady-state fraction of vertex rows rewritten per epoch (ISU)")
	if hasExplain {
		res.Notes = append(res.Notes,
			"bottleneck/crit % come from the critical-path analyzer (gopim explain); 'top bubble' is the largest idle class summed over stages")
	}
	if rowsTotal > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"ISU write traffic during GCN training: %.0f of %.0f rows rewritten (%.1f%%)",
			rowsRewritten, rowsTotal, 100*rowsRewritten/rowsTotal))
	}
	// Fault-injection footprint, when the run had faults on: how much of
	// the makespan/crossbar story above is fault-driven.
	if faultyCells > 0 || writeRetries > 0 || retired > 0 || degraded > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"fault injection: %.0f stuck cells expected on placed crossbars, %.0f extra write-verify cycles, %.0f crossbars retired, %.0f degraded allocations",
			faultyCells, writeRetries, retired, degraded))
	}
	return res, nil
}

// bottleneckCells renders a row's explain-derived columns: the stage
// owning the largest critical-path share, that share, and the bubble
// class holding the most idle time. Rows without the series (an older
// snapshot mixed into a newer one) render blank cells.
func bottleneckCells(r *attribRow) []string {
	stage, share := maxEntry(r.crit)
	class, _ := maxEntry(r.bubble)
	if stage == "" && class == "" {
		return []string{"", "", ""}
	}
	cells := []string{stage, "", class}
	if stage != "" {
		cells[1] = fmt.Sprintf("%.1f%%", share*100)
	}
	return cells
}

// maxEntry returns the key with the largest value, ties broken by key
// order so output never depends on map iteration.
func maxEntry(m map[string]float64) (string, float64) {
	var bestK string
	var bestV float64
	for k, v := range m {
		if bestK == "" || v > bestV || (v == bestV && k < bestK) {
			bestK, bestV = k, v
		}
	}
	return bestK, bestV
}

// AttributionConfig picks the configuration to attribute from a BENCH
// file: the one whose snapshot carries the most accel series (the
// sim-matrix, in practice).
func AttributionConfig(f *File) (ConfigResult, error) {
	best := -1
	bestN := 0
	for i, c := range f.Configs {
		n := 0
		for _, m := range c.SimMetrics {
			if strings.HasPrefix(m.Name, "accel.") && strings.Contains(m.Name, "{") {
				n++
			}
		}
		if n > bestN {
			best, bestN = i, n
		}
	}
	if best < 0 {
		return ConfigResult{}, fmt.Errorf("bench: no labelled accel series to attribute")
	}
	return f.Configs[best], nil
}
