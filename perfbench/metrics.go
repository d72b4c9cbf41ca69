package main

import (
	"gopim/internal/obs"
)

// metricDef is one reported metric as BENCHMARK.json lists it. Bound
// (end-to-end metrics only) is the share of the parent's median a
// metric may worsen by; Moves (per-layer metrics only) names the
// end-to-end metric and workload the layer number should move.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
	Moves              string
}

// endToEnd are the metrics a user of every workload sees, reported
// with tracing off. Each must read non-zero on every workload and
// repeat within its bound, so three numbers users also see are
// per-layer instead: plan latency (plan.p50_ms, plan.p99_ms) exists on
// one workload only, fail_frac reads 0 (failures reach the result as
// "failed"), and peak_rss_mb spreads ±13% between plan runs because it
// depends on how concurrent misses overlap. run_s has the widest
// bound: one sweep takes half a minute, so each sweep result is a
// single run, and on a shared 2-CPU host whole-run CPU speed varies
// by ±8%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// sweepExperiments get their own busy-time row; the rest share one.
var sweepExperiments = []string{"fig9", "gen", "tab7", "tab5", "fig16", "cora", "faultsweep", "churnsweep"}

// memoDomains are the simmemo caches whose hit ratios are reported.
var memoDomains = []string{"train", "instance", "profile", "rmse", "accelrun", "trace", "degmodel"}

// replayCalls are the public calls a plan makes, timed one by one when
// the traced plan run replays every distinct key.
var replayCalls = []string{
	"graphgen.synth", "mapping.layout", "mapping.plan", "stage.build",
	"alloc.greedy", "pipeline.simulate", "explain.analyze", "accel.run",
	"predictor.predict",
}

// perLayer lists every number the traced run reports, in output order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better, moves string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Moves: moves})
	}
	for _, m := range append(append([]string(nil), cpuModules...), "gc", "other") {
		add("cpu."+m+".share", "frac", "lower", "run_s where the share is large (sweep: tensor/gcn/mlp; plan: mapping)")
	}
	add("tracing.overhead_s", "s", "lower", "none: traced run_s minus the untraced median")
	add("tracing.overhead_frac", "frac", "lower", "none: tracing.overhead_s over the untraced median run_s")
	add("plan.p50_ms", "ms", "lower", "run_s on plan (cache hits: serve/singleflight/obs request path)")
	add("plan.p99_ms", "ms", "lower", "run_s on plan (cache misses: mapping sorts)")
	add("plan.samples", "count", "higher", "none: sample count behind plan.p50_ms/plan.p99_ms")
	add("fail_frac", "frac", "lower", "correct and failed on every workload")
	add("peak_rss_mb", "MB", "lower", "none: peak resident set (VmHWM) of the untraced runs, median")
	for _, id := range sweepExperiments {
		add("experiments."+id+".busy_s", "s", "lower", "run_s on sweep")
	}
	add("experiments.rest.busy_s", "s", "lower", "run_s on sweep")
	add("experiments.idle_s", "s", "lower", "run_s on sweep")
	add("gcn.train_runs", "count", "lower", "run_s on sweep; no change on plan/churn")
	add("gcn.epochs", "count", "lower", "run_s on sweep; no change on plan/churn")
	add("gcn.epoch.busy_s", "s", "lower", "run_s on sweep; no change on plan/churn")
	add("predictor.train_calls", "count", "lower", "run_s on sweep")
	add("predictor.train.busy_s", "s", "lower", "run_s on sweep")
	add("predictor.profile_samples", "count", "lower", "run_s on sweep")
	add("predictor.setup.train_calls", "count", "lower", "setup_s on plan")
	add("predictor.setup.train.busy_s", "s", "lower", "setup_s on plan")
	add("predictor.setup.profile_samples", "count", "lower", "setup_s on plan")
	for _, d := range memoDomains {
		add("simmemo."+d+".hit_ratio", "frac", "higher", "run_s on sweep")
	}
	add("simmemo.train.misses", "count", "lower", "run_s on sweep; equal across runs of a seed (cold start)")
	add("simmemo.rmse.misses", "count", "lower", "run_s on sweep; equal across runs of a seed (cold start)")
	add("parallel.for_calls", "count", "lower", "run_s on sweep")
	add("parallel.helper_busy_s", "s", "lower", "run_s on sweep")
	add("parallel.helper_budget_denied", "count", "lower", "run_s on sweep")
	add("serve.cache_lookup.busy_s", "s", "lower", "plan.p50_ms on plan")
	add("serve.marshal.busy_s", "s", "lower", "plan.p50_ms on plan")
	add("serve.queue.wait_s", "s", "lower", "plan.p50_ms on plan")
	for _, st := range []string{"plan", "simulate", "explain"} {
		add("serve."+st+".busy_s", "s", "lower", "plan.p99_ms and run_s on plan")
	}
	add("serve.plans_computed", "count", "lower", "fail_frac on plan; equal across runs of a seed (cold start)")
	add("serve.cache.hit_ratio", "frac", "higher", "fail_frac and run_s on plan")
	add("serve.cache_evictions", "count", "lower", "fail_frac on plan")
	add("serve.rejected_overload", "count", "lower", "fail_frac on plan")
	add("serve.deadline_shed", "count", "lower", "fail_frac on plan")
	for _, c := range replayCalls {
		add(c+".busy_s", "s", "lower", "plan.p99_ms and run_s on plan")
	}
	for _, c := range []string{"pipeline.simulations", "trace.simulations", "trace.events", "accel.simulations"} {
		add(c, "count", "lower", "run_s on plan and churn")
	}
	for _, c := range []string{"epochs", "edges_changed", "stripes_moved", "full_remaps", "refreshes", "retirements", "degraded_epochs"} {
		add("churn."+c, "count", "lower", "run_s on churn")
	}
	add("mapping.incremental_ratio", "frac", "higher", "run_s on churn")
	return out
}

// registry reads the program's obs metrics by name.
type registry map[string]obs.Metric

func readRegistry() registry {
	r := registry{}
	for _, m := range obs.Default().Metrics() {
		r[m.Name()] = m
	}
	return r
}

// count returns a counter's value, 0 when it is not registered.
func (r registry) count(name string) float64 {
	if c, ok := r[name].(*obs.Counter); ok {
		return float64(c.Value())
	}
	return 0
}

// seconds returns a wall timer's accumulated time in seconds.
func (r registry) seconds(name string) float64 {
	if t, ok := r[name].(*obs.Timer); ok {
		return float64(t.Sum()) / 1e9
	}
	return 0
}

// ratio returns num/(num+den), 0 when both are 0.
func ratio(num, den float64) float64 {
	if num+den == 0 {
		return 0
	}
	return num / (num + den)
}

// programLayers fills the per-layer numbers every workload reads from
// the program's obs registry.
func programLayers(m map[string]float64) {
	r := readRegistry()
	m["gcn.train_runs"] = r.count("gcn.train_runs")
	m["gcn.epochs"] = r.count("gcn.epochs")
	m["gcn.epoch.busy_s"] = r.seconds("gcn.epoch_ns")
	m["predictor.train_calls"] = r.count("predictor.train_calls")
	m["predictor.train.busy_s"] = r.seconds("predictor.train_ns")
	m["predictor.profile_samples"] = r.count("predictor.profile_samples")
	for _, d := range memoDomains {
		m["simmemo."+d+".hit_ratio"] = ratio(r.count("simmemo."+d+"_hits"), r.count("simmemo."+d+"_misses"))
	}
	m["simmemo.train.misses"] = r.count("simmemo.train_misses")
	m["simmemo.rmse.misses"] = r.count("simmemo.rmse_misses")
	m["parallel.for_calls"] = r.count("parallel.for_calls")
	m["parallel.helper_busy_s"] = r.seconds("parallel.helper_busy_ns")
	m["parallel.helper_budget_denied"] = r.count("parallel.helper_budget_denied")
	requests := r.count("serve.requests")
	m["serve.plans_computed"] = r.count("serve.plans_computed")
	if requests > 0 {
		m["serve.cache.hit_ratio"] = r.count("serve.cache_hits") / requests
	}
	m["serve.cache_evictions"] = r.count("serve.cache_evictions")
	m["serve.rejected_overload"] = r.count("serve.rejected_overload")
	m["serve.deadline_shed"] = r.count("serve.deadline_shed")
	for _, c := range []string{"pipeline.simulations", "trace.simulations", "trace.events", "accel.simulations"} {
		m[c] = r.count(c)
	}
}

// coldCounters are counts that only repeat exactly when a run starts
// with every memo cache empty; runs of one seed must agree on them.
func coldCounters() map[string]int64 {
	r := readRegistry()
	out := map[string]int64{}
	for _, n := range []string{"simmemo.train_misses", "simmemo.rmse_misses", "serve.plans_computed"} {
		out[n] = int64(r.count(n))
	}
	return out
}
