package bench

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"gopim/internal/experiments"
)

// Class is a metric-level diff verdict.
type Class string

// Diff classifications.
const (
	Improved  Class = "improved"
	Regressed Class = "regressed"
	Unchanged Class = "unchanged"
	Added     Class = "added"
	Removed   Class = "removed"
)

// Direction says which way a metric should move to count as progress.
type Direction int

// Metric directions. Neutral metrics describe work shape (run counts,
// bucket populations): on the deterministic Sim clock they must not
// move at all for a fixed suite and seed, so any drift classifies as
// regressed and the baseline must be refreshed deliberately.
const (
	Neutral Direction = iota
	LowerIsBetter
	HigherIsBetter
)

// lowerBetter and higherBetter are name fragments the direction
// heuristic recognises; everything else is Neutral.
var (
	lowerBetter = []string{"makespan", "energy", "idle", "latency", "busy",
		"_ns", "_pj", "rows_rewritten", "update_frac", "wear", "denied",
		"alloc", "gc_count"}
	higherBetter = []string{"hits", "speedup", "throughput"}
)

// directionOf classifies one metric field. Count and bucket fields are
// always Neutral: "how many makespans were observed" growing is a
// workload change, not a faster simulator.
func directionOf(name, field string) Direction {
	if field == "count" || strings.HasPrefix(field, "lt_2e") {
		return Neutral
	}
	for _, frag := range lowerBetter {
		if strings.Contains(name, frag) {
			return LowerIsBetter
		}
	}
	for _, frag := range higherBetter {
		if strings.Contains(name, frag) {
			return HigherIsBetter
		}
	}
	return Neutral
}

// wallRel is the relative change under which a non-Sim metric of a raw
// -metrics snapshot reads as unchanged. Those metrics are report-only;
// Sim metrics compare exactly.
const wallRel = 0.25

// MetricDiff is one compared value.
type MetricDiff struct {
	Config string
	Key    string // "metric.name field"
	Old    string
	New    string
	// RelDelta is (new-old)/|old|; NaN when either side is non-numeric,
	// ±Inf when old is zero and new is not.
	RelDelta float64
	Class    Class
	// Strict diffs (Sim-clock metrics) gate the exit status.
	Strict bool
}

// Report is a full two-file comparison.
type Report struct {
	OldLabel string
	NewLabel string
	// Notes records apples-to-oranges warnings (suite or config
	// mismatches).
	Notes []string
	Diffs []MetricDiff
}

// classify compares two rendered values under a direction and relative
// threshold.
func classify(oldV, newV string, dir Direction, rel float64) (Class, float64) {
	if oldV == newV {
		return Unchanged, 0
	}
	of, errO := strconv.ParseFloat(oldV, 64)
	nf, errN := strconv.ParseFloat(newV, 64)
	if errO != nil || errN != nil {
		// Non-numeric and unequal: there is no magnitude to tolerate.
		return Regressed, math.NaN()
	}
	var delta float64
	switch {
	case of == nf:
		return Unchanged, 0
	case of == 0:
		delta = math.Inf(1)
		if nf < 0 {
			delta = math.Inf(-1)
		}
	default:
		delta = (nf - of) / math.Abs(of)
	}
	if math.Abs(delta) <= rel {
		return Unchanged, delta
	}
	switch dir {
	case LowerIsBetter:
		if nf < of {
			return Improved, delta
		}
	case HigherIsBetter:
		if nf > of {
			return Improved, delta
		}
	}
	return Regressed, delta
}

// metricKey joins a metric name and field into the diff key.
func metricKey(name, field string) string { return name + " " + field }

// diffConfig compares one matched configuration pair.
func diffConfig(name string, old, new ConfigResult) []MetricDiff {
	var out []MetricDiff
	oldByKey := map[string]MetricValue{}
	for _, m := range old.SimMetrics {
		oldByKey[metricKey(m.Name, m.Field)] = m
	}
	newByKey := map[string]MetricValue{}
	for _, m := range new.SimMetrics {
		newByKey[metricKey(m.Name, m.Field)] = m
	}
	keys := make([]string, 0, len(oldByKey)+len(newByKey))
	for k := range oldByKey {
		keys = append(keys, k)
	}
	for k := range newByKey {
		if _, dup := oldByKey[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		o, haveOld := oldByKey[k]
		n, haveNew := newByKey[k]
		strict := (haveOld && o.Clock == "sim") || (haveNew && n.Clock == "sim")
		rel := 0.0
		if !strict {
			rel = wallRel
		}
		d := MetricDiff{Config: name, Key: k, Strict: strict}
		switch {
		case !haveOld:
			d.Class, d.Old, d.New, d.RelDelta = Added, "", n.Value, math.NaN()
		case !haveNew:
			d.Class, d.Old, d.New, d.RelDelta = Removed, o.Value, "", math.NaN()
		default:
			d.Old, d.New = o.Value, n.Value
			d.Class, d.RelDelta = classify(o.Value, n.Value,
				directionOf(o.Name, o.Field), rel)
		}
		out = append(out, d)
	}
	return out
}

// Diff compares two loaded files configuration by configuration.
func Diff(old, new *File) *Report {
	r := &Report{OldLabel: old.Label, NewLabel: new.Label}
	if !sameSuite(old.Suite, new.Suite) {
		r.Notes = append(r.Notes,
			"suites differ (seed/workloads) — value diffs compare different work")
	}
	oldCfg := map[string]ConfigResult{}
	for _, c := range old.Configs {
		oldCfg[c.Name] = c
	}
	newCfg := map[string]ConfigResult{}
	for _, c := range new.Configs {
		newCfg[c.Name] = c
	}
	names := make([]string, 0, len(oldCfg)+len(newCfg))
	for n := range oldCfg {
		names = append(names, n)
	}
	for n := range newCfg {
		if _, dup := oldCfg[n]; !dup {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		o, haveOld := oldCfg[name]
		n, haveNew := newCfg[name]
		switch {
		case !haveOld:
			r.Notes = append(r.Notes, fmt.Sprintf("config %q only in %s", name, new.Label))
			for _, m := range n.SimMetrics {
				r.Diffs = append(r.Diffs, MetricDiff{
					Config: name, Key: metricKey(m.Name, m.Field),
					New: m.Value, RelDelta: math.NaN(),
					Class: Added, Strict: m.Clock == "sim",
				})
			}
		case !haveNew:
			r.Notes = append(r.Notes, fmt.Sprintf("config %q only in %s", name, old.Label))
			for _, m := range o.SimMetrics {
				r.Diffs = append(r.Diffs, MetricDiff{
					Config: name, Key: metricKey(m.Name, m.Field),
					Old: m.Value, RelDelta: math.NaN(),
					Class: Removed, Strict: m.Clock == "sim",
				})
			}
		default:
			r.Diffs = append(r.Diffs, diffConfig(name, o, n)...)
		}
	}
	return r
}

func sameSuite(a, b Suite) bool {
	eq := func(x, y []string) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return a.Seed == b.Seed && a.Fast == b.Fast &&
		eq(a.Experiments, b.Experiments) && eq(a.Datasets, b.Datasets) &&
		eq(a.Models, b.Models)
}

// Count returns how many diffs carry the class (strictOnly limits the
// count to strict metrics).
func (r *Report) Count(c Class, strictOnly bool) int {
	n := 0
	for _, d := range r.Diffs {
		if d.Class == c && (!strictOnly || d.Strict) {
			n++
		}
	}
	return n
}

// Failures counts the strict (Sim-clock) values that regressed,
// appeared or vanished — the number the CLI turns into a nonzero exit.
// A metric that disappears from the suite is as much a change in what
// the simulator computes as one whose value moves.
func (r *Report) Failures() int {
	return r.Count(Regressed, true) + r.Count(Added, true) + r.Count(Removed, true)
}

// Summary is the one-line verdict printed under the table.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		"diff %s -> %s: %d compared; %d unchanged, %d improved, %d regressed (%d strict), %d added, %d removed; %d strict failures",
		r.OldLabel, r.NewLabel, len(r.Diffs),
		r.Count(Unchanged, false), r.Count(Improved, false),
		r.Count(Regressed, false), r.Count(Regressed, true),
		r.Count(Added, false), r.Count(Removed, false), r.Failures())
}

// fmtDelta renders a relative change for the report table.
func fmtDelta(d float64) string {
	switch {
	case math.IsNaN(d):
		return ""
	case math.IsInf(d, 1):
		return "+inf"
	case math.IsInf(d, -1):
		return "-inf"
	case d == 0:
		return "0%"
	}
	return fmt.Sprintf("%+.2f%%", d*100)
}

// Result renders the report as a table (reusing the experiment
// renderers, so -format text/csv/markdown all work). Unchanged rows
// are elided unless showUnchanged is set — a healthy diff of a full
// suite would otherwise print hundreds of identical lines.
func (r *Report) Result(showUnchanged bool) *experiments.Result {
	res := &experiments.Result{
		ID:     "diff",
		Title:  fmt.Sprintf("%s -> %s", r.OldLabel, r.NewLabel),
		Header: []string{"config", "metric", "old", "new", "delta", "class", "gates"},
		Notes:  append([]string(nil), r.Notes...),
	}
	elided := 0
	for _, d := range r.Diffs {
		if d.Class == Unchanged && !showUnchanged {
			elided++
			continue
		}
		gates := "report-only"
		if d.Strict {
			gates = "strict"
		}
		res.Rows = append(res.Rows, []string{
			d.Config, d.Key, d.Old, d.New, fmtDelta(d.RelDelta), string(d.Class), gates,
		})
	}
	if elided > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d unchanged metrics elided", elided))
	}
	return res
}
