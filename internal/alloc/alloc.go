// Package alloc implements crossbar replica allocation for the GCN
// training pipeline: the paper's max-heap greedy algorithm
// (Algorithm 1) plus the baseline policies it is compared against
// (Pipelayer-style equal split, ReGraphX's fixed CO:AG ratio,
// SlimGNN-like space-proportional allocation, ReFlip's
// combination-only replicas), and an exact brute-force optimum used to
// bound the greedy's gap in tests.
//
// Allocators reason about the closed-form pipeline total of paper
// equation (6): T_A = Σ tᵢ/rᵢ + (B−1)·max tᵢ/rᵢ. The times handed in
// may be ML predictions (GoPIM) or profiled ground truth (the
// Table VII comparison); the allocator is agnostic.
package alloc

import (
	"container/heap"
	"fmt"

	"gopim/internal/stage"
)

// Request describes one allocation problem.
type Request struct {
	// TimesNS are per-stage, per-micro-batch latencies at one replica.
	TimesNS []float64
	// Crossbars is the footprint of one replica per stage.
	Crossbars []int
	// Replicable marks stages that replicas can shorten.
	Replicable []bool
	// Kinds drive kind-aware policies (fixed ratio, combination-only).
	Kinds []stage.Kind
	// Budget is the number of unused crossbars available for replicas
	// (beyond the original mapping, which is already placed).
	Budget int
	// RetiredCrossbars is how many of the budget crossbars fault
	// retirement has removed from the free pool (internal/fault). The
	// policies allocate from Budget − RetiredCrossbars, clamped at 0 —
	// a shrinking pool yields fewer replicas, never an error.
	RetiredCrossbars int
	// MicroBatches is B in equation (6).
	MicroBatches int
	// MaxReplicas caps each stage's replica count (0 = unlimited).
	// Physically, a stage cannot use more copies than it has work items
	// in flight: the pipelining window times the micro-batch's
	// vertex-level parallelism.
	MaxReplicas []int
}

// capOf returns stage i's replica cap (MaxInt if unlimited).
func (r Request) capOf(i int) int {
	if r.MaxReplicas == nil || r.MaxReplicas[i] <= 0 {
		return int(^uint(0) >> 1)
	}
	return r.MaxReplicas[i]
}

func (r Request) validate() error {
	n := len(r.TimesNS)
	if n == 0 {
		return fmt.Errorf("alloc: no stages")
	}
	if len(r.Crossbars) != n || len(r.Replicable) != n || len(r.Kinds) != n {
		return fmt.Errorf("alloc: inconsistent slice lengths")
	}
	if r.Budget < 0 {
		return fmt.Errorf("alloc: negative budget %d", r.Budget)
	}
	if r.RetiredCrossbars < 0 {
		return fmt.Errorf("alloc: negative retired crossbars %d", r.RetiredCrossbars)
	}
	if r.MicroBatches < 1 {
		return fmt.Errorf("alloc: micro-batches %d must be ≥ 1", r.MicroBatches)
	}
	if r.MaxReplicas != nil && len(r.MaxReplicas) != n {
		return fmt.Errorf("alloc: %d replica caps for %d stages", len(r.MaxReplicas), n)
	}
	for i, t := range r.TimesNS {
		if t < 0 {
			return fmt.Errorf("alloc: stage %d time %v negative", i, t)
		}
		if r.Replicable[i] && r.Crossbars[i] <= 0 {
			return fmt.Errorf("alloc: replicable stage %d has footprint %d", i, r.Crossbars[i])
		}
	}
	return nil
}

// effectiveBudget is the free pool the policies may actually spend:
// the nominal budget minus fault-retired crossbars, never negative.
func (r Request) effectiveBudget() int {
	b := r.Budget - r.RetiredCrossbars
	if b < 0 {
		b = 0
	}
	return b
}

// Result is an allocation: replica counts (≥ 1, counting the original
// mapping) and the number of budget crossbars consumed.
type Result struct {
	Replicas []int
	Used     int
	// Degraded reports that fault retirement shrank the pool this
	// allocation drew from (the accel.alloc_degraded signal).
	Degraded bool
}

// degraded reports whether retirement actually removed capacity.
func (r Request) degraded() bool {
	return r.RetiredCrossbars > 0 && r.Budget > 0
}

// FromStages builds a Request from stage models.
func FromStages(stages []stage.Stage, budget, microBatches int) Request {
	req := Request{
		TimesNS:      make([]float64, len(stages)),
		Crossbars:    make([]int, len(stages)),
		Replicable:   make([]bool, len(stages)),
		Kinds:        make([]stage.Kind, len(stages)),
		Budget:       budget,
		MicroBatches: microBatches,
	}
	for i, s := range stages {
		req.TimesNS[i] = s.TimeNS
		req.Crossbars[i] = s.Crossbars
		req.Replicable[i] = s.Replicable
		req.Kinds[i] = s.Kind
	}
	return req
}

// TotalTimeNS evaluates equation (6) for a replica assignment.
func TotalTimeNS(times []float64, replicas []int, microBatches int) float64 {
	var sum, max float64
	for i, t := range times {
		eff := t / float64(replicas[i])
		sum += eff
		if eff > max {
			max = eff
		}
	}
	return sum + float64(microBatches-1)*max
}

func onesLike(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = 1
	}
	return r
}

// benefit returns the reduction in T_A from granting stage i one more
// replica.
func benefit(req Request, replicas []int, i int) float64 {
	before := TotalTimeNS(req.TimesNS, replicas, req.MicroBatches)
	replicas[i]++
	after := TotalTimeNS(req.TimesNS, replicas, req.MicroBatches)
	replicas[i]--
	return before - after
}

// node is a heap entry: key is the heap's ordering value, value is the
// stage index (Algorithm 1's key/value pairs).
type node struct {
	key   float64
	value int
}

// maxHeap is a max-heap of nodes keyed by key.
type maxHeap []node

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i].key > h[j].key }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(node)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// minRelBenefit stops Greedy when the best single-replica gain falls
// below this fraction of the current total.
const minRelBenefit = 1e-6

// Greedy implements paper Algorithm 1: two max-heaps, H_v keyed by each
// stage's replica adjustment value (the T_A reduction of one more
// replica) and H_p keyed by each stage's current effective duration.
// While unused crossbars remain, the stage at the top of H_v gains a
// replica; both heaps are then re-keyed. Allocation stops when the
// budget cannot afford the most valuable stage or the best gain is
// negligible.
func Greedy(req Request) Result {
	if err := req.validate(); err != nil {
		panic(err)
	}
	n := len(req.TimesNS)
	replicas := onesLike(n)
	used := 0
	budget := req.effectiveBudget()

	hv := &maxHeap{} // adjustment values
	hp := &maxHeap{} // effective durations
	for i := range req.TimesNS {
		if !req.Replicable[i] || req.Crossbars[i] > budget {
			continue
		}
		heap.Push(hv, node{key: benefit(req, replicas, i), value: i})
		heap.Push(hp, node{key: req.TimesNS[i], value: i})
	}

	// Every grant invalidates all adjustment values (the pipeline
	// bottleneck may move), so heap keys are refreshed lazily: before
	// trusting the top, recompute its key until it is current — the
	// classic lazy max-heap, which is what Algorithm 1's top-down
	// shiftHeap achieves.
	version := 0
	keyVersion := make([]int, n)
	for hv.Len() > 0 {
		for keyVersion[(*hv)[0].value] != version {
			i := (*hv)[0].value
			(*hv)[0].key = benefit(req, replicas, i)
			keyVersion[i] = version
			heap.Fix(hv, 0)
		}
		total := TotalTimeNS(req.TimesNS, replicas, req.MicroBatches)
		v := (*hv)[0]
		if v.key <= minRelBenefit*total {
			break
		}
		i := v.value
		cost := req.Crossbars[i]
		if cost > budget-used || replicas[i] >= req.capOf(i) {
			// Cannot afford the most valuable stage (or it is at its
			// usefulness cap); drop it and try the next.
			heap.Pop(hv)
			continue
		}
		replicas[i]++
		used += cost
		version++

		// Track the granted stage's new effective duration in H_p
		// (Algorithm 1 lines 9–17).
		for j := range *hp {
			if (*hp)[j].value == i {
				(*hp)[j].key = req.TimesNS[i] / float64(replicas[i])
				heap.Fix(hp, j)
				break
			}
		}
	}
	return Result{Replicas: replicas, Used: used, Degraded: req.degraded()}
}

// EqualSplit gives every replicable stage the same replica count, the
// largest k that fits the budget (Pipelayer's policy).
func EqualSplit(req Request) Result {
	if err := req.validate(); err != nil {
		panic(err)
	}
	perSet := 0
	for i := range req.TimesNS {
		if req.Replicable[i] {
			perSet += req.Crossbars[i]
		}
	}
	replicas := onesLike(len(req.TimesNS))
	if perSet == 0 {
		return Result{Replicas: replicas, Degraded: req.degraded()}
	}
	extra := req.effectiveBudget() / perSet
	used := 0
	for i := range req.TimesNS {
		if req.Replicable[i] {
			add := extra
			if max := req.capOf(i) - 1; add > max {
				add = max
			}
			replicas[i] += add
			used += add * req.Crossbars[i]
		}
	}
	return Result{Replicas: replicas, Used: used, Degraded: req.degraded()}
}

// FixedRatio allocates replicas to Combination-family stages (CO, LC)
// and Aggregation stages in the given ratio, ReGraphX-style (the paper
// cites CO:AG = 1:2). The scale factor is the largest that fits.
func FixedRatio(req Request, coWeight, agWeight int) Result {
	if err := req.validate(); err != nil {
		panic(err)
	}
	if coWeight < 0 || agWeight < 0 || coWeight+agWeight == 0 {
		panic(fmt.Sprintf("alloc: bad ratio %d:%d", coWeight, agWeight))
	}
	weight := func(k stage.Kind) int {
		switch k {
		case stage.Aggregation:
			return agWeight
		case stage.Combination, stage.LossCalc:
			return coWeight
		default:
			return 0
		}
	}
	// Cost of one "ratio round": weight(kind) replicas per stage.
	perRound := 0
	for i := range req.TimesNS {
		if req.Replicable[i] {
			perRound += weight(req.Kinds[i]) * req.Crossbars[i]
		}
	}
	replicas := onesLike(len(req.TimesNS))
	if perRound == 0 {
		return Result{Replicas: replicas, Degraded: req.degraded()}
	}
	rounds := req.effectiveBudget() / perRound
	used := 0
	for i := range req.TimesNS {
		if req.Replicable[i] {
			add := rounds * weight(req.Kinds[i])
			if max := req.capOf(i) - 1; add > max {
				add = max
			}
			replicas[i] += add
			used += add * req.Crossbars[i]
		}
	}
	return Result{Replicas: replicas, Used: used, Degraded: req.degraded()}
}

// SpaceProportional allocates replicas proportionally to each stage's
// crossbar footprint (SlimGNN-like: replica counts follow the space
// requirements of each stage). Every replicable stage gets the same
// number of additional copies — proportionality in crossbars follows
// from the footprint-proportional cost — which is exactly EqualSplit's
// arithmetic; it exists as its own named policy for reporting.
func SpaceProportional(req Request) Result {
	return EqualSplit(req)
}
