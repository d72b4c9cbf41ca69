package accel

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gopim/internal/churn"
	"gopim/internal/endurance"
	"gopim/internal/fault"
	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/obs"
	"gopim/internal/parallel"
	"gopim/internal/reram"
	"gopim/internal/stage"
)

// churnConfig is the standard test scenario: 2% edge churn with wear
// calibrated so the hottest rows cross the ReRAM write limit inside
// the run, forcing mid-run retirement.
func churnConfig(epochs int) churn.Config {
	return churn.Config{
		Rate:         0.02,
		Seed:         7,
		Policy:       churn.Threshold,
		DaysPerEpoch: ChurnDaysForRetirement(epochs, 1.2),
	}
}

// TestRunChurnRetirementMidRun is the acceptance scenario: sustained
// churn accumulates wear, wear retires crossbars mid-run (not at
// setup), and allocation degrades instead of erroring.
func TestRunChurnRetirementMidRun(t *testing.T) {
	const epochs = 8
	res, err := RunChurn(ddiWorkload(t), churnConfig(epochs), epochs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != epochs {
		t.Fatalf("got %d epoch rows, want %d", len(res.Epochs), epochs)
	}
	if res.EdgesAdded == 0 || res.EdgesRemoved == 0 {
		t.Fatalf("2%% churn mutated nothing: %+v", res)
	}
	if res.StripesMoved == 0 {
		t.Fatal("churn moved no stripes")
	}
	if res.Retirements == 0 {
		t.Fatal("wear never triggered a retirement event")
	}
	if res.Epochs[0].Retired >= res.FinalRetired {
		t.Fatalf("retirement did not grow mid-run: epoch0 %d, final %d",
			res.Epochs[0].Retired, res.FinalRetired)
	}
	if res.DegradedEpochs == 0 {
		t.Fatal("no epoch reported a degraded allocation despite retirements")
	}
	for _, ep := range res.Epochs {
		if ep.MakespanNS <= 0 {
			t.Fatalf("epoch %d has non-positive makespan %v", ep.Epoch, ep.MakespanNS)
		}
		if ep.Retired > 0 && !ep.Degraded {
			t.Fatalf("epoch %d: %d crossbars retired but allocation not degraded", ep.Epoch, ep.Retired)
		}
	}
}

// TestRunChurnDeterministic: two identical runs — and runs at 1, 2 and
// 8 workers — must produce identical results and byte-identical Sim
// snapshots. Churn draws only from (seed, epoch)-keyed streams, so the
// worker count must be invisible.
func TestRunChurnDeterministic(t *testing.T) {
	const epochs = 6
	w := ddiWorkload(t)
	cc := churnConfig(epochs)

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer parallel.SetWorkers(0)
	defer obs.Default().Reset()

	var wantRes ChurnResult
	var wantSnap []byte
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		obs.Default().Reset()
		res, err := RunChurn(w, cc, epochs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := obs.Default().WriteText(&buf, obs.Sim); err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"churn.edges_added", "churn.stripes_moved", "churn.retirements_triggered"} {
			if !strings.Contains(buf.String(), m) {
				t.Fatalf("workers=%d: snapshot missing %s:\n%s", workers, m, buf.String())
			}
		}
		if wantSnap == nil {
			wantRes, wantSnap = res, buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), wantSnap) {
			t.Errorf("workers=%d: churn Sim snapshot differs from workers=1:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				workers, wantSnap, workers, buf.Bytes())
		}
		for i, ep := range res.Epochs {
			if ep != wantRes.Epochs[i] {
				t.Fatalf("workers=%d epoch %d diverged: %+v vs %+v", workers, i, ep, wantRes.Epochs[i])
			}
		}
	}
}

// churnOracle is runChurn written as a plain serial loop: each epoch
// mutates the degrees and takes its own copy of them, draws its fault
// model where it uses it, and prices the epoch on freshly computed
// active-block terms.
// The counters it would add are read off its result.
func churnOracle(t *testing.T, w Workload, cc churn.Config, epochs int) ChurnResult {
	t.Helper()
	stream, err := churn.NewStream(cc)
	if err != nil {
		t.Fatal(err)
	}
	cc = stream.Config()
	w.defaults()
	stream.Reset(w.Deg.DegreesByIndex)
	var degs []float64
	fm := w.faultModel()
	baseCfg := fm.Config()
	if baseCfg.RetireThreshold == 0 {
		baseCfg.RetireThreshold = churnRetireThreshold
	}
	theta := w.Theta()
	isu := stageConfig(GoPIM, w, fm)
	layout, upd := isu.Layout, isu.Plan
	cells := w.Chip.CellsPerCrossbar()
	res := ChurnResult{Dataset: w.Dataset.Name, Policy: cc.Policy}
	prevRetired := 0
	if fm.Enabled() {
		prevRetired = fm.Retired(w.Chip.TotalCrossbars(), cells)
	}
	drift := 0.0
	for e := 0; e < epochs; e++ {
		next, delta := stream.Mutate(e)
		degs = slices.Clone(next)
		res.EdgesAdded += delta.EdgesAdded
		res.EdgesRemoved += delta.EdgesRemoved

		epochCfg := baseCfg
		if cc.DaysPerEpoch > 0 {
			epochCfg.WearWritesPerCell = baseCfg.WearWritesPerCell +
				endurance.TotalCellWrites(ChurnProfile, 1, float64(e+1)*cc.DaysPerEpoch)
		}
		epochFM := fault.MustNew(epochCfg)
		var dead []bool
		retired := 0
		if epochFM.Enabled() {
			dead = epochFM.DeadGroups((len(degs)+w.Chip.CrossbarRows-1)/w.Chip.CrossbarRows, cells)
			retired = epochFM.Retired(w.Chip.TotalCrossbars(), cells)
		}
		if retired > prevRetired {
			res.Retirements++
		}
		prevRetired = retired

		dstats := layout.ApplyDelta(degs, delta.Changed, dead)
		res.StripesMoved += dstats.StripesMoved
		if dstats.Full {
			res.FullRemaps++
		}
		drift += float64(len(delta.Changed)) / float64(len(degs))
		refreshed := cc.ShouldRefresh(drift)
		if refreshed {
			if cc.Policy == churn.Adaptive {
				theta = mapping.AdaptiveTheta(avgDegree(degs))
			}
			upd = layout.UpdatePlan(theta, isuStalePeriod)
			drift = 0
			res.Refreshes++
		}
		active := stage.NewActiveBlocks(stage.Config{Chip: w.Chip, Deg: graphgen.NewDegreeModel(degs)})
		ep := simulateChurnEpoch(w, epochFM, degs, active, layout, upd)
		ep.Epoch = e
		ep.EdgesAdded = delta.EdgesAdded
		ep.EdgesRemoved = delta.EdgesRemoved
		ep.Vertices = len(degs)
		ep.StripesMoved = dstats.StripesMoved
		ep.FullRemap = dstats.Full
		ep.Refreshed = refreshed
		ep.Theta = theta
		ep.Retired = retired
		res.Epochs = append(res.Epochs, ep)
		if ep.Degraded {
			res.DegradedEpochs++
		}
	}
	res.FinalRetired = prevRetired
	return res
}

// TestRunChurnIdenticalAcrossWorkers: the two-lane loop must give the
// serial oracle's result, JSON byte for byte, and add exactly the
// churn.* counts that result implies, at 1, 2 and 8 workers. The cases
// run arxiv at perfbench's 0.5% under every refresh policy with wear
// on, and ddi at 2% with the adaptive policy, where every epoch falls
// back to a full remap.
func TestRunChurnIdenticalAcrossWorkers(t *testing.T) {
	arxiv, err := graphgen.ByName("arxiv")
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 6
	type tc struct {
		name string
		w    Workload
		cc   churn.Config
	}
	var cases []tc
	for _, p := range []churn.Policy{churn.Threshold, churn.Eager, churn.Adaptive} {
		cc := churnConfig(epochs)
		cc.Rate, cc.Policy = 0.005, p
		cases = append(cases, tc{"arxiv/" + string(p), Workload{Dataset: arxiv, Seed: 1}, cc})
	}
	ddi := churnConfig(epochs)
	ddi.Policy = churn.Adaptive
	cases = append(cases, tc{"ddi/adaptive", ddiWorkload(t), ddi})

	defer parallel.SetWorkers(0)
	defer obs.Default().Reset()
	counters := []*obs.Counter{mChurnEdgesAdded, mChurnEdgesRemoved, mChurnStripesMoved,
		mChurnFullRemaps, mChurnRetirements}
	for _, c := range cases {
		oracle := churnOracle(t, c.w, c.cc, epochs)
		want, err := json.Marshal(oracle)
		if err != nil {
			t.Fatal(err)
		}
		wantCounts := []int64{int64(oracle.EdgesAdded), int64(oracle.EdgesRemoved),
			int64(oracle.StripesMoved), int64(oracle.FullRemaps), int64(oracle.Retirements)}
		if c.name == "ddi/adaptive" && oracle.FullRemaps != epochs {
			t.Fatalf("%s: %d of %d epochs fell back; the case wants every one", c.name, oracle.FullRemaps, epochs)
		}
		for _, workers := range []int{1, 2, 8} {
			parallel.SetWorkers(workers)
			obs.Default().Reset()
			res, err := RunChurn(c.w, c.cc, epochs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s, workers=%d: result differs from the serial oracle\n got %s\nwant %s", c.name, workers, got, want)
			}
			for i, m := range counters {
				if m.Value() != wantCounts[i] {
					t.Errorf("%s, workers=%d: %s = %d, oracle %d", c.name, workers, m.Name(), m.Value(), wantCounts[i])
				}
			}
		}
	}
}

// TestRunChurnZeroRateStaticPath is the churn-rate-0 pin: with churn
// disabled the loop must be a structural no-op — no mutations, no
// stripe moves, no retirements, and every epoch's makespan exactly the
// static GoPIM run's.
func TestRunChurnZeroRateStaticPath(t *testing.T) {
	w := ddiWorkload(t)
	res, err := RunChurn(w, churn.Config{Seed: 7, DaysPerEpoch: 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesAdded+res.EdgesRemoved+res.StripesMoved+res.FullRemaps+res.Retirements != 0 {
		t.Fatalf("zero-rate churn did structural work: %+v", res)
	}
	static := Run(GoPIM, w)
	for _, ep := range res.Epochs {
		if ep.MakespanNS != static.MakespanNS {
			t.Fatalf("epoch %d makespan %v != static GoPIM %v", ep.Epoch, ep.MakespanNS, static.MakespanNS)
		}
		if ep.Degraded {
			t.Fatalf("epoch %d degraded without faults", ep.Epoch)
		}
	}
}

// TestRunChurnComposesWithBaseFaultModel: a base manufacturing fault
// rate must compose with churn wear rather than being replaced by it.
func TestRunChurnComposesWithBaseFaultModel(t *testing.T) {
	const epochs = 4
	w := ddiWorkload(t)
	w.Fault = fault.MustNew(fault.Config{Rate: 1e-3, Seed: 3})
	cc := churnConfig(epochs)
	res, err := RunChurn(w, cc, epochs)
	if err != nil {
		t.Fatal(err)
	}
	// The base rate alone retires some crossbars from epoch 0; wear can
	// only add to that.
	if res.Epochs[0].Retired == 0 {
		t.Fatal("base fault rate retired nothing at epoch 0")
	}
	if res.FinalRetired < res.Epochs[0].Retired {
		t.Fatalf("retired count shrank: %d → %d", res.Epochs[0].Retired, res.FinalRetired)
	}
}

// TestRunChurnRejectsBadInput: invalid configs and epoch counts error
// cleanly.
func TestRunChurnRejectsBadInput(t *testing.T) {
	w := ddiWorkload(t)
	if _, err := RunChurn(w, churn.Config{}, 0); err == nil {
		t.Fatal("epochs=0 must error")
	}
	if _, err := RunChurn(w, churn.Config{Rate: 2}, 1); err == nil {
		t.Fatal("rate 2 must error")
	}
}

// avgActiveBlocksRef is the AG stages' active-block mean written the
// plain way: one Chip.ExpectedActiveBlocks call per vertex.
func avgActiveBlocksRef(chip reram.Chip, degs []float64) float64 {
	var sum float64
	for _, d := range degs {
		sum += chip.ExpectedActiveBlocks(d, len(degs))
	}
	if len(degs) == 0 {
		return 0
	}
	return sum / float64(len(degs))
}

// TestChurnCarriedActiveBlocks: after every epoch of a wear run, the
// active-block terms the loop carries must give the fresh pass's mean
// bit for bit, and stages built on them must equal stage.Build's.
func TestChurnCarriedActiveBlocks(t *testing.T) {
	const epochs = 6
	w := ddiWorkload(t)
	w.defaults()
	seen := 0
	_, err := runChurn(w, churnConfig(epochs), epochs, func(st churnState) {
		degs, active := st.degs, st.active
		seen++
		if got, want := active.Mean(), avgActiveBlocksRef(w.Chip, degs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("epoch %d: carried mean %v, reference %v", seen-1, got, want)
		}
		cfg := stage.Config{Chip: w.Chip, Dataset: w.Dataset, Deg: graphgen.NewDegreeModel(degs), MicroBatch: w.MicroBatch}
		if got, want := active.Build(cfg), stage.Build(cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("epoch %d: stages on the carried terms differ from stage.Build", seen-1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != epochs {
		t.Fatalf("observer ran %d times, want %d", seen, epochs)
	}
}

// TestChurnCarriedLayout: after every epoch of a wear run, the layout
// the loop carries and updates in place must equal a fresh
// InterleavedLayoutHealthy of the mutated degrees under that epoch's
// dead flags — order, routing and rank order — and its update plan
// NewUpdatePlan's. It runs arxiv at perfbench's 0.5% rate, where the
// layout patches incrementally (on ddi every epoch falls back to a full
// remap); the run must retire crossbars mid-way and take the
// incremental path, so both the routing and the merge are exercised.
func TestChurnCarriedLayout(t *testing.T) {
	const epochs = 8
	d, err := graphgen.ByName("arxiv")
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Dataset: d, Seed: 1}
	w.defaults()
	cc := churnConfig(epochs)
	cc.Rate = 0.005
	rows := w.Chip.CrossbarRows
	seen, deadEpochs := 0, 0
	res, err := runChurn(w, cc, epochs, func(st churnState) {
		seen++
		if st.dead != nil {
			deadEpochs++
		}
		want := mapping.InterleavedLayoutHealthy(st.degs, rows, st.dead)
		if st.dead == nil {
			want = mapping.InterleavedLayout(st.degs, rows)
		}
		if !st.layout.Equal(want) {
			t.Errorf("epoch %d: carried layout differs from a fresh build", seen-1)
		}
		theta := w.Theta()
		if got, want := st.layout.UpdatePlan(theta, isuStalePeriod), mapping.NewUpdatePlan(st.degs, theta, isuStalePeriod); !reflect.DeepEqual(got, want) {
			t.Errorf("epoch %d: plan from the carried ranking differs from NewUpdatePlan", seen-1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != epochs {
		t.Fatalf("observer ran %d times, want %d", seen, epochs)
	}
	if res.Retirements == 0 || deadEpochs == 0 {
		t.Fatalf("no retirement during the run (retirements %d, epochs with dead flags %d)", res.Retirements, deadEpochs)
	}
	if res.FullRemaps == epochs {
		t.Fatal("every epoch fell back to a full remap; the incremental path is untested")
	}
}

// BenchmarkRunChurn prices perfbench's churn run: arxiv at 0.5% edge
// churn with the threshold policy and wear calibrated for the run's
// 40 epochs. The run's set-up (the initial interleaved layout and
// active-block terms) is a small part of each op, so a profile of a few
// ops shows the epoch's steps, which perfbench's single traced run is
// too short to resolve.
func BenchmarkRunChurn(b *testing.B) {
	const epochs = 40
	d, err := graphgen.ByName("arxiv")
	if err != nil {
		b.Fatal(err)
	}
	w := Workload{Dataset: d, Seed: 1, Deg: DegModelFor(d, 1)}
	cc := churn.Config{
		Rate:         0.005,
		Seed:         1,
		Policy:       churn.Threshold,
		DaysPerEpoch: ChurnDaysForRetirement(epochs, 1.2),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunChurn(w, cc, epochs); err != nil {
			b.Fatal(err)
		}
	}
}
