package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gopim"
	"gopim/internal/accel"
	"gopim/internal/experiments"
	"gopim/internal/explain"
	"gopim/internal/trace"
)

// explainCmd runs `gopim explain <dataset> [model]`: it simulates the
// model on the dataset, extracts the critical path of the resulting
// schedule, attributes every idle nanosecond to a bubble class, and
// reports the gap to the eq.(6) closed form plus a ±1-replica
// sensitivity table. Output is a pure function of the Sim clock —
// byte-identical at any -workers count.
func explainCmd(sess *obsSession, args []string, seed int64, format experiments.Format) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	mb := fs.Int("mb", 64, "micro-batch window to analyze (0 = the full epoch)")
	jsonOut := fs.Bool("json", false, "emit the full analysis as JSON instead of tables")
	noSens := fs.Bool("no-sensitivity", false, "skip the ±1-replica re-simulations")
	gantt := fs.Bool("gantt", false, "also draw the marked schedule (first 16 micro-batches)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gopim [flags] explain [-mb N] [-json] [-no-sensitivity] [-gantt] <dataset> [model]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return fmt.Errorf("usage: gopim explain <dataset> [model]")
	}
	d, err := gopim.DatasetByName(fs.Arg(0))
	if err != nil {
		return err
	}
	model := gopim.GoPIM
	if fs.NArg() == 2 {
		if model, err = accel.KindByName(fs.Arg(1)); err != nil {
			return err
		}
	}
	if *mb < 0 {
		return fmt.Errorf("explain: -mb %d is negative", *mb)
	}

	r := gopim.Simulate(model, gopim.Workload{Dataset: d, Seed: seed})
	in := accel.TraceInput(r)
	if *mb > 0 && *mb < in.MicroBatches {
		in.MicroBatches = *mb
	}
	ex := explain.Analyze(in, r.StageNames, explain.Options{Sensitivity: !*noSens})
	sess.addSimEvents(ex.ChromeTraceEvents(r.StageNames))
	sess.setExplainInfo(ex)
	return renderExplain(os.Stdout, ex, r, in, format, *jsonOut, *gantt)
}

// renderExplain writes the analysis: JSON verbatim with -json, else
// the stage table in the experiments render conventions, optionally
// followed by the critical-path-marked gantt chart.
func renderExplain(w io.Writer, ex *explain.Result, r gopim.Report, in trace.Input,
	format experiments.Format, jsonOut, gantt bool) error {
	if jsonOut {
		return ex.WriteJSON(w)
	}
	header, rows, notes := ex.StageTable()
	res := &experiments.Result{
		ID:     "explain",
		Title:  fmt.Sprintf("critical path of %s on %s (%d micro-batches)", r.Kind, r.Dataset, in.MicroBatches),
		Paper:  "eq.(6) gives the pipelined lower bound; fig-9/fig-15 discuss the residual idle time",
		Header: header,
		Rows:   rows,
		Notes:  notes,
	}
	if err := res.RenderAs(w, format); err != nil {
		return err
	}
	if !gantt {
		return nil
	}
	mb := in.MicroBatches
	if mb > 16 {
		mb = 16
	}
	ganttIn := in
	ganttIn.MicroBatches = mb
	sched := trace.Simulate(ganttIn)
	gx := explain.Analyze(ganttIn, r.StageNames, explain.Options{})
	fmt.Fprintf(w, "first %d micro-batches (* = critical path):\n", mb)
	return sched.RenderGanttMarked(w, 100, r.StageNames, gx.OnPath)
}
