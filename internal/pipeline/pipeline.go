// Package pipeline schedules micro-batches through GCN training stages
// under the paper's dependency model (equations (3)–(6)):
//
//	start(i,j) ≥ end(i−1,j)   — stage order within a micro-batch
//	start(i,j) ≥ end(i,j−1)   — micro-batch order within a stage
//
// and computes makespan and per-stage busy/idle percentages (the
// quantities of paper Figs. 4 and 15). For the fully pipelined mode the
// makespan equals the closed-form total T_A = Σ tᵢ + (B−1)·max tᵢ,
// which alloc.TotalTimeNS evaluates.
//
// Replicas shorten a stage's effective per-micro-batch time to tᵢ/rᵢ
// (paper Fig. 5: splitting a stage's work across replicated crossbars).
package pipeline

import (
	"fmt"

	"gopim/internal/obs"
)

// Schedule metrics: everything here is a function of the simulated
// workload, so all series live on the deterministic Sim clock.
var (
	mSimulations = obs.NewCounter("pipeline.simulations", obs.Sim,
		"schedules simulated")
	mMicroBatches = obs.NewCounter("pipeline.micro_batches", obs.Sim,
		"micro-batches scheduled across all simulations")
	mStages = obs.NewCounter("pipeline.stages_scheduled", obs.Sim,
		"stage lanes scheduled across all simulations")
	mMicroBatchHist = obs.NewHistogram("pipeline.micro_batches_per_sim", obs.Sim,
		"micro-batch count per simulation (power-of-two buckets)")
	mMakespan = obs.NewDistribution("pipeline.makespan_ns", obs.Sim,
		"simulated makespan per schedule")
)

// Mode selects how much pipelining the accelerator supports.
type Mode int

const (
	// Serial executes stages and micro-batches strictly sequentially
	// (the paper's Serial baseline).
	Serial Mode = iota
	// IntraBatch pipelines micro-batches inside a batch but places a
	// barrier between batches (SlimGNN-like, ReGraphX).
	IntraBatch
	// IntraInterBatch pipelines across batch boundaries as well
	// (GoPIM, paper §IV-A).
	IntraInterBatch
)

func (m Mode) String() string {
	switch m {
	case Serial:
		return "serial"
	case IntraBatch:
		return "intra-batch"
	case IntraInterBatch:
		return "intra+inter-batch"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Input configures one schedule simulation.
type Input struct {
	// TimesNS are the per-micro-batch stage latencies with one replica,
	// in pipeline order.
	TimesNS []float64
	// Replicas holds the replica count per stage (≥ 1); nil means one
	// replica everywhere.
	Replicas []int
	// MicroBatches is the total number of micro-batches B.
	MicroBatches int
	// MicroBatchesPerBatch bounds a batch for IntraBatch mode (weight
	// updates barrier the pipeline). Ignored by the other modes;
	// 0 defaults to 8.
	MicroBatchesPerBatch int
	Mode                 Mode
}

// Result reports a simulated schedule.
type Result struct {
	// MakespanNS is the total execution time.
	MakespanNS float64
	// BusyNS is, per stage, the total time its crossbars compute.
	BusyNS []float64
	// IdleFrac is, per stage, 1 − busy/makespan — paper Fig. 4's
	// "idle time percentage of crossbars for stage i".
	IdleFrac []float64
}

// EffectiveTimes divides each stage time by its replica count.
func EffectiveTimes(times []float64, replicas []int) []float64 {
	eff := make([]float64, len(times))
	for i, t := range times {
		r := 1
		if replicas != nil {
			if len(replicas) != len(times) {
				panic(fmt.Sprintf("pipeline: %d replicas for %d stages", len(replicas), len(times)))
			}
			r = replicas[i]
			if r < 1 {
				panic(fmt.Sprintf("pipeline: stage %d has %d replicas", i, r))
			}
		}
		eff[i] = t / float64(r)
	}
	return eff
}

// Simulate runs the schedule and returns timing and idle statistics.
func Simulate(in Input) Result {
	res := SimulateUnrecorded(in)
	RecordSim(len(in.TimesNS), in.MicroBatches, res.MakespanNS)
	return res
}

// RecordSim publishes exactly the metrics one Simulate call records,
// from the simulation's shape and outcome. Memoizing callers (accel's
// run cache) pair it with SimulateUnrecorded so a cached run replays
// the same metric effect as a fresh one.
func RecordSim(stages, microBatches int, makespanNS float64) {
	mSimulations.Inc()
	mMicroBatches.Add(int64(microBatches))
	mStages.Add(int64(stages))
	mMicroBatchHist.Observe(int64(microBatches))
	mMakespan.Observe(makespanNS)
}

// SimulateUnrecorded is Simulate without the metric records — the
// computation is a pure function of the input.
func SimulateUnrecorded(in Input) Result {
	if len(in.TimesNS) == 0 {
		panic("pipeline: no stages")
	}
	if in.MicroBatches < 1 {
		panic(fmt.Sprintf("pipeline: %d micro-batches", in.MicroBatches))
	}
	for i, t := range in.TimesNS {
		if t < 0 {
			panic(fmt.Sprintf("pipeline: stage %d has negative time %v", i, t))
		}
	}
	eff := EffectiveTimes(in.TimesNS, in.Replicas)
	var makespan float64
	switch in.Mode {
	case Serial:
		makespan = serialMakespan(eff, in.MicroBatches)
	case IntraBatch:
		per := in.MicroBatchesPerBatch
		if per <= 0 {
			per = 8
		}
		makespan = 0
		remaining := in.MicroBatches
		for remaining > 0 {
			b := per
			if b > remaining {
				b = remaining
			}
			makespan += pipelinedMakespan(eff, b)
			remaining -= b
		}
	case IntraInterBatch:
		makespan = pipelinedMakespan(eff, in.MicroBatches)
	default:
		panic(fmt.Sprintf("pipeline: unknown mode %v", in.Mode))
	}

	busy := make([]float64, len(eff))
	idle := make([]float64, len(eff))
	for i, t := range eff {
		busy[i] = t * float64(in.MicroBatches)
		if makespan > 0 {
			idle[i] = 1 - busy[i]/makespan
			if idle[i] < 0 {
				idle[i] = 0
			}
		}
	}
	return Result{MakespanNS: makespan, BusyNS: busy, IdleFrac: idle}
}

func serialMakespan(eff []float64, b int) float64 {
	var sum float64
	for _, t := range eff {
		sum += t
	}
	return sum * float64(b)
}

// pipelinedMakespan evaluates the recurrence of equations (3)–(4); for
// constant stage times it equals the closed form (6):
// Σ tᵢ + (B−1)·max tᵢ.
func pipelinedMakespan(eff []float64, b int) float64 {
	// end[i] is the finish time of stage i for the previous micro-batch.
	end := make([]float64, len(eff))
	for j := 0; j < b; j++ {
		prev := 0.0 // end of stage i-1 for this micro-batch
		for i, t := range eff {
			start := prev
			if end[i] > start {
				start = end[i]
			}
			end[i] = start + t
			prev = end[i]
		}
	}
	return end[len(eff)-1]
}
