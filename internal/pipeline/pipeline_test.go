package pipeline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gopim/internal/alloc"
)

// Paper Fig. 5: two stages with times 1 and 6, two micro-batches per
// batch, four batches (8 micro-batches total in the drawing's timeline
// of 52 units for the serial-ish pipeline).
//
// Case (a): no replicas, pipelined: T = (1+6) + (8−1)·6 = 49… the
// figure counts 52 units because its batches arrive as 2-micro-batch
// groups; we verify the three allocation cases relative to each other
// instead, which is the figure's actual point.
func TestFig5AllocationCases(t *testing.T) {
	times := []float64{1, 6}
	const b = 8

	noRep := Simulate(Input{TimesNS: times, MicroBatches: b, Mode: IntraInterBatch})

	// Case (b): ReGraphX 1:2 ratio — 1 replica to stage 1, 2 to stage 2
	// (on top of the original copy): stage times 1/2 and 6/3 = 2.
	regraphx := Simulate(Input{TimesNS: times, Replicas: []int{2, 3}, MicroBatches: b, Mode: IntraInterBatch})

	// Case (c): all three replicas to stage 2: stage times 1 and 6/4.
	gopim := Simulate(Input{TimesNS: times, Replicas: []int{1, 4}, MicroBatches: b, Mode: IntraInterBatch})

	if !(regraphx.MakespanNS < noRep.MakespanNS) {
		t.Fatalf("ReGraphX allocation %v must beat no replicas %v", regraphx.MakespanNS, noRep.MakespanNS)
	}
	if !(gopim.MakespanNS < regraphx.MakespanNS) {
		t.Fatalf("GoPIM allocation %v must beat ReGraphX %v (paper Fig. 5c vs 5b)", gopim.MakespanNS, regraphx.MakespanNS)
	}

	// Improvement ratios from the paper: (b) ≈ 65.4%, (c) ≈ 69.2% of
	// the per-stage work removed. Verify the ordering of improvements
	// holds with a clear margin.
	impB := 1 - regraphx.MakespanNS/noRep.MakespanNS
	impC := 1 - gopim.MakespanNS/noRep.MakespanNS
	if impC <= impB {
		t.Fatalf("improvements: case c %v must exceed case b %v", impC, impB)
	}
}

func TestSerialMakespan(t *testing.T) {
	r := Simulate(Input{TimesNS: []float64{2, 3, 5}, MicroBatches: 4, Mode: Serial})
	if math.Abs(r.MakespanNS-40) > 1e-9 {
		t.Fatalf("serial makespan = %v, want 4·(2+3+5) = 40", r.MakespanNS)
	}
}

// Property: the DP schedule with constant stage times equals the
// closed form of paper equation (6).
func TestPipelinedMatchesClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		times := make([]float64, n)
		ones := make([]int, n)
		for i := range times {
			times[i] = rng.Float64() * 100
			ones[i] = 1
		}
		b := 1 + rng.Intn(50)
		r := Simulate(Input{TimesNS: times, MicroBatches: b, Mode: IntraInterBatch})
		want := alloc.TotalTimeNS(times, ones, b)
		return math.Abs(r.MakespanNS-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: pipelining never loses to serial, and intra+inter never
// loses to intra-batch.
func TestModeOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		times := make([]float64, n)
		for i := range times {
			times[i] = rng.Float64() * 50
		}
		b := 1 + rng.Intn(60)
		ser := Simulate(Input{TimesNS: times, MicroBatches: b, Mode: Serial}).MakespanNS
		intra := Simulate(Input{TimesNS: times, MicroBatches: b, MicroBatchesPerBatch: 8, Mode: IntraBatch}).MakespanNS
		full := Simulate(Input{TimesNS: times, MicroBatches: b, Mode: IntraInterBatch}).MakespanNS
		return full <= intra+1e-9 && intra <= ser+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: replicas never hurt.
func TestReplicasMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		times := make([]float64, n)
		reps := make([]int, n)
		more := make([]int, n)
		for i := range times {
			times[i] = 1 + rng.Float64()*20
			reps[i] = 1 + rng.Intn(4)
			more[i] = reps[i] + rng.Intn(3)
		}
		b := 1 + rng.Intn(30)
		base := Simulate(Input{TimesNS: times, Replicas: reps, MicroBatches: b, Mode: IntraInterBatch}).MakespanNS
		better := Simulate(Input{TimesNS: times, Replicas: more, MicroBatches: b, Mode: IntraInterBatch}).MakespanNS
		return better <= base+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIdleFractions(t *testing.T) {
	// One long stage, one short: the short stage idles most of the time.
	r := Simulate(Input{TimesNS: []float64{1, 9}, MicroBatches: 100, Mode: IntraInterBatch})
	if r.IdleFrac[1] > 0.05 {
		t.Fatalf("bottleneck stage idle = %v, want ≈0", r.IdleFrac[1])
	}
	if r.IdleFrac[0] < 0.85 {
		t.Fatalf("short stage idle = %v, want ≈0.9", r.IdleFrac[0])
	}
	// Busy times: B·t each.
	if math.Abs(r.BusyNS[0]-100) > 1e-9 || math.Abs(r.BusyNS[1]-900) > 1e-9 {
		t.Fatalf("busy = %v", r.BusyNS)
	}
}

// Balancing stage times with replicas reduces the total idle fraction
// — the mechanism behind paper Fig. 15.
func TestReplicasReduceIdle(t *testing.T) {
	times := []float64{1, 8}
	naive := Simulate(Input{TimesNS: times, MicroBatches: 64, Mode: IntraInterBatch})
	balanced := Simulate(Input{TimesNS: times, Replicas: []int{1, 8}, MicroBatches: 64, Mode: IntraInterBatch})
	sum := func(f []float64) float64 { return f[0] + f[1] }
	if sum(balanced.IdleFrac) >= sum(naive.IdleFrac) {
		t.Fatalf("balanced idle %v should be below naive %v", balanced.IdleFrac, naive.IdleFrac)
	}
}

func TestIntraBatchBarriers(t *testing.T) {
	times := []float64{3, 3}
	// 4 micro-batches, batches of 2: each batch takes 3+3+3 = 9, two
	// batches = 18. Fully pipelined: 6 + 3·3 = 15.
	intra := Simulate(Input{TimesNS: times, MicroBatches: 4, MicroBatchesPerBatch: 2, Mode: IntraBatch})
	if math.Abs(intra.MakespanNS-18) > 1e-9 {
		t.Fatalf("intra-batch makespan = %v, want 18", intra.MakespanNS)
	}
	full := Simulate(Input{TimesNS: times, MicroBatches: 4, Mode: IntraInterBatch})
	if math.Abs(full.MakespanNS-15) > 1e-9 {
		t.Fatalf("full pipeline makespan = %v, want 15", full.MakespanNS)
	}
}

func TestEffectiveTimes(t *testing.T) {
	eff := EffectiveTimes([]float64{10, 20}, []int{2, 4})
	if eff[0] != 5 || eff[1] != 5 {
		t.Fatalf("EffectiveTimes = %v", eff)
	}
	if got := EffectiveTimes([]float64{7}, nil); got[0] != 7 {
		t.Fatalf("nil replicas should mean 1: %v", got)
	}
}

func TestValidation(t *testing.T) {
	cases := []func(){
		func() { Simulate(Input{TimesNS: nil, MicroBatches: 1}) },
		func() { Simulate(Input{TimesNS: []float64{1}, MicroBatches: 0}) },
		func() { Simulate(Input{TimesNS: []float64{-1}, MicroBatches: 1}) },
		func() { Simulate(Input{TimesNS: []float64{1}, Replicas: []int{0}, MicroBatches: 1}) },
		func() { Simulate(Input{TimesNS: []float64{1}, Replicas: []int{1, 2}, MicroBatches: 1}) },
		func() { Simulate(Input{TimesNS: []float64{1}, MicroBatches: 1, Mode: Mode(99)}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSingleMicroBatch(t *testing.T) {
	// With B = 1 every mode degenerates to the stage-time sum.
	times := []float64{4, 5, 6}
	for _, m := range []Mode{Serial, IntraBatch, IntraInterBatch} {
		r := Simulate(Input{TimesNS: times, MicroBatches: 1, Mode: m})
		if math.Abs(r.MakespanNS-15) > 1e-9 {
			t.Fatalf("mode %v: makespan = %v, want 15", m, r.MakespanNS)
		}
	}
}

func TestModeString(t *testing.T) {
	if Serial.String() != "serial" || IntraBatch.String() != "intra-batch" ||
		IntraInterBatch.String() != "intra+inter-batch" {
		t.Fatal("mode strings wrong")
	}
}
