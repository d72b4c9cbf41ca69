package accel

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"gopim/internal/churn"
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
