package experiments

import (
	"fmt"

	"gopim/internal/accel"
	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/pipeline"
)

func init() {
	register("fig4", fig4)
	register("fig5", fig5)
	register("fig6", fig6)
	register("fig7", fig7)
}

// motivationDatasets returns the six OGB datasets of the motivation
// study, shrunk in Fast mode.
func motivationDatasets(opt Options) []graphgen.Dataset {
	ds := graphgen.MotivationSix()
	if opt.Fast {
		for i := range ds {
			if ds[i].PaperVertices > 50_000 {
				ds[i].PaperVertices = 50_000
			}
		}
	}
	return ds
}

// fig4 reproduces the idle-time percentages of the crossbars per
// forward-pass stage under the SlimGNN-like pipeline.
func fig4(opt Options) (*Result, error) {
	res := &Result{
		ID:     "fig4",
		Title:  "Idle time percentage of crossbars per stage (SlimGNN-like pipeline)",
		Paper:  "XBS1/XBS3/XBS5 (Combination-stage crossbars) idle 98.47%/97.50%/99.03% on average across six datasets",
		Header: []string{"dataset", "XBS1(CO1)", "XBS2(AG1)", "XBS3(CO2)", "XBS4(AG2)", "XBS5(CO3)", "XBS6(AG3)"},
	}
	var coSum [3]float64
	var coCount [3]int
	for _, d := range motivationDatasets(opt) {
		// The motivation study profiles the forward pipeline without
		// replica optimisation, so use the naive pipelined accelerator.
		r := accel.Run(accel.PlusPP, accel.Workload{Dataset: d, Seed: opt.Seed})
		row := []string{d.Name}
		forward := 0
		for i, name := range r.StageNames {
			if name[0] != 'C' && name[0] != 'A' {
				continue
			}
			row = append(row, fmtPct(r.IdleFrac[i]))
			if name[0] == 'C' && forward/2 < 3 {
				coSum[forward/2] += r.IdleFrac[i]
				coCount[forward/2]++
			}
			forward++
		}
		for len(row) < len(res.Header) {
			row = append(row, "-") // 2-layer models have no stage 5/6
		}
		res.Rows = append(res.Rows, row)
	}
	avgRow := []string{"average"}
	for i := 0; i < 3; i++ {
		if coCount[i] > 0 {
			avgRow = append(avgRow, fmtPct(coSum[i]/float64(coCount[i])), "")
		}
	}
	res.Rows = append(res.Rows, avgRow)
	res.Notes = append(res.Notes,
		"Combination-stage crossbars idle the vast majority of the time because aggregation dominates the pipeline interval.")
	return res, nil
}

// fig5 reproduces the worked allocation example: two stages with times
// 1:6, two micro-batches per batch over four batches, three spare
// crossbars.
func fig5(opt Options) (*Result, error) {
	times := []float64{1, 6}
	const b = 8
	cases := []struct {
		name     string
		replicas []int
	}{
		{"(a) no replicas", []int{1, 1}},
		{"(b) ReGraphX 1:2", []int{2, 3}},
		{"(c) GoPIM: all to stage 2", []int{1, 4}},
	}
	res := &Result{
		ID:     "fig5",
		Title:  "Unused-crossbar allocation worked example (stage times 1:6)",
		Paper:  "52 time units (a) → −34 units at 1:2 (b) → −36 units with all replicas on stage 2 (c); improvement 65.4% → 69.2%",
		Header: []string{"case", "pipeline time", "improvement"},
	}
	base := 0.0
	for _, c := range cases {
		r := pipeline.Simulate(pipeline.Input{
			TimesNS: times, Replicas: c.replicas, MicroBatches: b,
			Mode: pipeline.IntraInterBatch,
		})
		if base == 0 {
			base = r.MakespanNS
		}
		res.Rows = append(res.Rows, []string{
			c.name,
			fmt.Sprintf("%.1f units", r.MakespanNS),
			fmtPct(1 - r.MakespanNS/base),
		})
	}
	res.Notes = append(res.Notes,
		"The figure's absolute 52 units include its drawing's batch arrival pattern; the ordering and the (c) > (b) improvement gap are the claim under test.")
	return res, nil
}

// fig6 reproduces the per-crossbar average-degree skew of index-based
// mapping.
func fig6(opt Options) (*Result, error) {
	res := &Result{
		ID:     "fig6",
		Title:  "Average degree of vertices mapped per crossbar (index-based mapping)",
		Paper:  "ddi 151.8–827.4, proteins 1.6–2266.8, ppa 1–1716.9",
		Header: []string{"dataset", "min avg deg", "max avg deg", "max/min", "interleaved min", "interleaved max"},
	}
	for _, d := range motivationDatasets(opt) {
		deg := d.SynthDegreeModel(opt.Seed)
		idx := mapping.IndexLayout(deg.N, 64)
		lo, hi := mapping.MinMax(idx.GroupAvgDegrees(deg.DegreesByIndex))
		il := mapping.InterleavedLayout(deg.DegreesByIndex, 64)
		ilo, ihi := mapping.MinMax(il.GroupAvgDegrees(deg.DegreesByIndex))
		ratio := hi / lo
		if lo == 0 {
			ratio = hi
		}
		res.Rows = append(res.Rows, []string{
			d.Name, fmtF(lo), fmtF(hi), fmtF(ratio), fmtF(ilo), fmtF(ihi),
		})
	}
	res.Notes = append(res.Notes,
		"Interleaved mapping (paper Fig. 11) collapses the spread; index order leaves orders-of-magnitude skew on power-law graphs.")
	return res, nil
}

// fig7 reproduces the OSU/ISU worked example: eight vertices with
// degrees 300, 500, 250, 450, 2, 15, 10, 1 on two 4-row crossbars,
// θ = 0.5.
func fig7(Options) (*Result, error) {
	degs := []float64{300, 500, 250, 450, 2, 15, 10, 1}
	osu := mapping.IndexLayout(len(degs), 4)
	isu := mapping.InterleavedLayout(degs, 4)
	plan := isu.UpdatePlan(0.5, 20)
	full := mapping.FullUpdatePlan(len(degs))

	res := &Result{
		ID:     "fig7",
		Title:  "Selective updating worked example (Figs. 7 and 12)",
		Paper:  "no sparsification: 4 cycles; OSU (index mapping): still 4 cycles; ISU (interleaved): 2 cycles",
		Header: []string{"scheme", "update cycles (slowest crossbar)"},
		Rows: [][]string{
			{"full update", fmt.Sprintf("%d", osu.MaxUpdatedRows(full, 1))},
			{"OSU (index + θ=0.5)", fmt.Sprintf("%d", osu.MaxUpdatedRows(plan, 1))},
			{"ISU (interleaved + θ=0.5)", fmt.Sprintf("%d", isu.MaxUpdatedRows(plan, 1))},
		},
	}
	return res, nil
}
