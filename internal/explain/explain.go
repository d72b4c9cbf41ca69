// Package explain turns a simulated schedule into an explanation of
// its makespan. Where package trace answers "how long", this package
// answers "why": which chain of events forms the critical path (and
// which dependency made each link wait), where the idle bubbles sit
// and what caused them, how far the schedule is from the paper's
// equation (6) closed form, and what one more (or one fewer) replica
// of each stage would buy.
//
// Everything here is a pure function of the input schedule, so all of
// it — including the Sim metrics it records — is deterministic at any
// worker count.
package explain

import (
	"fmt"
	"math"

	"gopim/internal/alloc"
	"gopim/internal/obs"
	"gopim/internal/trace"
)

// Analyzer metrics (Sim clock: pure functions of the analyzed input).
var (
	mAnalyses = obs.NewCounter("explain.analyses", obs.Sim,
		"critical-path analyses run")
	mPathEvents = obs.NewDistribution("explain.path_events", obs.Sim,
		"events on the extracted critical path")
	mGapFrac = obs.NewDistribution("explain.eq6_gap_frac", obs.Sim,
		"schedule overhead relative to the equation (6) closed form")
	mResims = obs.NewCounter("explain.resimulations", obs.Sim,
		"±1-replica what-if schedules re-simulated")
)

// Reason classifies why a critical-path event started when it did —
// which dependency was the binding constraint.
type Reason string

const (
	// ReasonSource marks the path's first event: it started at time 0,
	// bound by nothing (the pipeline-fill origin).
	ReasonSource Reason = "source"
	// ReasonDataDep: the event waited for the previous stage's result
	// for the same micro-batch (equation (3)).
	ReasonDataDep Reason = "data-dep"
	// ReasonOccupancy: every replica of the stage was busy; the event
	// waited for one to free up.
	ReasonOccupancy Reason = "occupancy"
	// ReasonBarrier: the event waited for in-order commit of the
	// previous micro-batch or for an intra-batch barrier (equation (4)
	// and the batch boundary of IntraBatch mode).
	ReasonBarrier Reason = "barrier"
)

// Bubble classes: where a replica-lane's idle time went.
const (
	// BubbleFill is lane idle before its first event — pipeline ramp-in.
	BubbleFill = "fill"
	// BubbleDrain is lane idle after its last event — pipeline ramp-out.
	BubbleDrain = "drain"
	// BubbleStarve is an interior gap: the lane waited for upstream
	// data between two executions.
	BubbleStarve = "starve"
	// BubbleOccupancy is idle occupancy without work: never-used lanes
	// (over-provisioned replicas holding crossbars the whole run) and
	// the in-order commit stretch, where a replica holds a finished
	// result past its service time.
	BubbleOccupancy = "occupancy"
)

// BubbleClasses lists the classes in canonical (reporting) order.
var BubbleClasses = []string{BubbleFill, BubbleDrain, BubbleStarve, BubbleOccupancy}

// PathEvent is one link of the critical path.
type PathEvent struct {
	Stage      int     `json:"stage"`
	MicroBatch int     `json:"micro_batch"`
	Replica    int     `json:"replica"`
	StartNS    float64 `json:"start_ns"`
	EndNS      float64 `json:"end_ns"`
	// Reason says which dependency bound this event's start: the chain
	// predecessor ends exactly at StartNS.
	Reason Reason `json:"reason"`
}

// ReasonCounts tallies the path's links by binding constraint.
type ReasonCounts struct {
	Source    int `json:"source"`
	DataDep   int `json:"data_dep"`
	Occupancy int `json:"occupancy"`
	Barrier   int `json:"barrier"`
}

// Bubble is one contiguous idle interval on one replica lane.
type Bubble struct {
	Stage   int    `json:"stage"`
	Replica int    `json:"replica"`
	Class   string `json:"class"`
	// Lanes > 1 aggregates the never-used lanes of a stage (all
	// identical whole-makespan starve intervals) into one record.
	Lanes   int     `json:"lanes,omitempty"`
	StartNS float64 `json:"start_ns"`
	EndNS   float64 `json:"end_ns"`
}

// StageReport is the per-stage view of the analysis.
type StageReport struct {
	Name     string  `json:"name"`
	Replicas int     `json:"replicas"`
	TimeNS   float64 `json:"time_ns"`
	BusyNS   float64 `json:"busy_ns"`
	// Utilization is busy/(makespan·replicas), as StageUtilization.
	Utilization float64 `json:"utilization"`
	// CritNS is the critical-path time spent in this stage; CritShare
	// is its fraction of the makespan.
	CritNS    float64 `json:"crit_ns"`
	CritShare float64 `json:"crit_share"`
	// SlackNS = makespan − CritNS: how much of the run this stage is
	// NOT the binding constraint. SlackRank orders stages by ascending
	// slack (rank 1 = the bottleneck).
	SlackNS   float64 `json:"slack_ns"`
	SlackRank int     `json:"slack_rank"`
	// Idle-time attribution by bubble class, summed over the stage's
	// lanes. Fill+Drain+Starve+Occupancy = makespan·replicas − busy.
	FillNS      float64 `json:"fill_ns"`
	DrainNS     float64 `json:"drain_ns"`
	StarveNS    float64 `json:"starve_ns"`
	OccupancyNS float64 `json:"occupancy_ns"`
	// DeltaPlusNS / DeltaMinusNS are the makespan change from +1 / −1
	// replica of this stage (re-simulated; only set with sensitivity
	// enabled; DeltaMinusNS is 0 at one replica).
	DeltaPlusNS  float64 `json:"delta_plus_ns"`
	DeltaMinusNS float64 `json:"delta_minus_ns"`
}

// BubbleNS returns the stage's idle time in one class.
func (s StageReport) BubbleNS(class string) float64 {
	switch class {
	case BubbleFill:
		return s.FillNS
	case BubbleDrain:
		return s.DrainNS
	case BubbleStarve:
		return s.StarveNS
	case BubbleOccupancy:
		return s.OccupancyNS
	}
	return 0
}

// Options configures an analysis.
type Options struct {
	// Sensitivity adds the ±1-replica what-if table: two extra
	// re-simulations per stage.
	Sensitivity bool
}

// Result is a complete makespan explanation.
type Result struct {
	MakespanNS   float64 `json:"makespan_ns"`
	MicroBatches int     `json:"micro_batches"`
	// Eq6NS is the equation (6) closed form Σtᵢ/rᵢ + (B−1)·max tᵢ/rᵢ —
	// the fully pipelined ideal for this allocation. GapNS/GapFrac
	// measure the schedule's overhead above it (fill/drain skew,
	// barriers, integer replica effects).
	Eq6NS      float64 `json:"eq6_ns"`
	Eq6GapNS   float64 `json:"eq6_gap_ns"`
	Eq6GapFrac float64 `json:"eq6_gap_frac"`
	// Bottleneck names the stage with the largest critical-path share.
	Bottleneck      string        `json:"bottleneck"`
	BottleneckStage int           `json:"bottleneck_stage"`
	Path            []PathEvent   `json:"path"`
	PathReasons     ReasonCounts  `json:"path_reasons"`
	Stages          []StageReport `json:"stages"`
	Bubbles         []Bubble      `json:"bubbles"`
	Sensitivity     bool          `json:"sensitivity"`
	// Schedule is the analyzed event schedule (for Gantt/trace export);
	// not part of the JSON form.
	Schedule *trace.Schedule `json:"-"`
}

// OnPath reports whether an event lies on the critical path.
func (r *Result) OnPath(e trace.Event) bool {
	for _, p := range r.Path {
		if p.Stage == e.Stage && p.MicroBatch == e.MicroBatch {
			return true
		}
	}
	return false
}

// Analyze simulates the input at event level and explains the result.
func Analyze(in trace.Input, names []string, opt Options) *Result {
	sched := trace.Simulate(in)
	n := len(in.TimesNS)
	res := &Result{
		MakespanNS:   sched.MakespanNS,
		MicroBatches: in.MicroBatches,
		Schedule:     sched,
	}

	a := newAnalysis(sched, n)
	res.Path = a.criticalPath(in)
	for _, p := range res.Path {
		switch p.Reason {
		case ReasonSource:
			res.PathReasons.Source++
		case ReasonDataDep:
			res.PathReasons.DataDep++
		case ReasonOccupancy:
			res.PathReasons.Occupancy++
		case ReasonBarrier:
			res.PathReasons.Barrier++
		}
	}

	res.Bubbles = a.bubbles(in)
	res.Stages = a.stageReports(in, names, res)
	rankBySlack(res.Stages)

	res.Eq6NS = alloc.TotalTimeNS(in.TimesNS, sched.Replicas, in.MicroBatches)
	res.Eq6GapNS = res.MakespanNS - res.Eq6NS
	res.Eq6GapFrac = frac(res.Eq6GapNS, res.Eq6NS)

	res.BottleneckStage = 0
	for i := range res.Stages {
		if res.Stages[i].CritShare > res.Stages[res.BottleneckStage].CritShare {
			res.BottleneckStage = i
		}
	}
	if len(res.Stages) > 0 {
		res.Bottleneck = res.Stages[res.BottleneckStage].Name
	}

	if opt.Sensitivity {
		res.Sensitivity = true
		a.sensitivity(in, res)
	}

	mAnalyses.Inc()
	mPathEvents.Observe(float64(len(res.Path)))
	mGapFrac.Observe(res.Eq6GapFrac)
	return res
}

// analysis holds the per-event indexes the extraction passes share.
type analysis struct {
	sched *trace.Schedule
	n     int
	// lanePrev[k] is the previous event on event k's (stage, replica)
	// lane, or −1.
	lanePrev []int
	// laneEvs maps a lane to its event indices in time order.
	laneEvs map[[2]int][]int
	// byEnd maps an end time to the indices of events ending then, in
	// index order.
	byEnd map[float64][]int
}

func newAnalysis(sched *trace.Schedule, n int) *analysis {
	a := &analysis{
		sched:    sched,
		n:        n,
		lanePrev: make([]int, len(sched.Events)),
		laneEvs:  map[[2]int][]int{},
		byEnd:    map[float64][]int{},
	}
	last := map[[2]int]int{}
	for k, e := range sched.Events {
		// The schedule contract: event (stage i, micro-batch j) sits at
		// index j·n+i. Everything below indexes by it.
		if k != e.MicroBatch*n+e.Stage {
			panic(fmt.Sprintf("explain: event %d violates the schedule order contract: %+v", k, e))
		}
		lane := [2]int{e.Stage, e.Replica}
		if p, ok := last[lane]; ok {
			a.lanePrev[k] = p
		} else {
			a.lanePrev[k] = -1
		}
		last[lane] = k
		a.laneEvs[lane] = append(a.laneEvs[lane], k)
		a.byEnd[e.EndNS] = append(a.byEnd[e.EndNS], k)
	}
	return a
}

// criticalPath walks backward from the schedule's final event. Every
// event's start is, by construction in the simulator, either 0 or a
// bitwise copy of some predecessor's end (the max of the candidate
// bounds), so each step finds a predecessor by exact float equality —
// no tolerances — and the returned chain tiles [0, makespan] without
// gaps: link k+1 starts exactly where link k ends.
func (a *analysis) criticalPath(in trace.Input) []PathEvent {
	if len(a.sched.Events) == 0 {
		return nil
	}
	// The last micro-batch's last stage always finishes last: per-stage
	// ends are non-decreasing in micro-batch (in-order commit) and the
	// final stage's end bounds the makespan.
	cur := (in.MicroBatches-1)*a.n + (a.n - 1)
	var rev []PathEvent
	for {
		e := a.sched.Events[cur]
		pe := PathEvent{
			Stage: e.Stage, MicroBatch: e.MicroBatch, Replica: e.Replica,
			StartNS: e.StartNS, EndNS: e.EndNS,
		}
		if e.StartNS == 0 {
			pe.Reason = ReasonSource
			rev = append(rev, pe)
			break
		}
		reason, pred := a.predecessor(cur)
		pe.Reason = reason
		rev = append(rev, pe)
		cur = pred
	}
	// Reverse into schedule order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// predecessor finds the event whose end exactly equals cur's start,
// preferring the most specific dependency: the equation (3) data
// dependency, then same-lane occupancy, then the equation (4) commit
// order, then any earlier event (the intra-batch barrier binds the
// whole pipeline to the slowest stage of the previous batch). Every
// candidate index is strictly below cur, so the walk terminates.
func (a *analysis) predecessor(cur int) (Reason, int) {
	e := a.sched.Events[cur]
	if e.Stage > 0 {
		p := e.MicroBatch*a.n + e.Stage - 1
		if a.sched.Events[p].EndNS == e.StartNS {
			return ReasonDataDep, p
		}
	}
	if p := a.lanePrev[cur]; p >= 0 && a.sched.Events[p].EndNS == e.StartNS {
		return ReasonOccupancy, p
	}
	if e.MicroBatch > 0 {
		p := (e.MicroBatch-1)*a.n + e.Stage
		if a.sched.Events[p].EndNS == e.StartNS {
			return ReasonBarrier, p
		}
	}
	ending := a.byEnd[e.StartNS]
	for k := len(ending) - 1; k >= 0; k-- {
		if ending[k] < cur {
			return ReasonBarrier, ending[k]
		}
	}
	panic(fmt.Sprintf("explain: no predecessor ends at %v for event %+v", e.StartNS, e))
}

// bubbles attributes every lane's idle time to a class. Intervals are
// emitted lane-major (stage, then replica, then time), which is
// already globally deterministic.
func (a *analysis) bubbles(in trace.Input) []Bubble {
	makespan := a.sched.MakespanNS
	var out []Bubble
	add := func(b Bubble) {
		if b.EndNS > b.StartNS {
			out = append(out, b)
		}
	}
	for i := 0; i < a.n; i++ {
		unused := 0
		firstUnused := -1
		for k := 0; k < a.sched.Replicas[i]; k++ {
			evs := a.laneEvs[[2]int{i, k}]
			if len(evs) == 0 {
				// Never-used lanes aggregate below: the earliest-free
				// dispatch fills lanes in index order, so they are all
				// identical whole-makespan occupancy intervals.
				if firstUnused < 0 {
					firstUnused = k
				}
				unused++
				continue
			}
			prevEnd := 0.0
			for _, idx := range evs {
				e := a.sched.Events[idx]
				class := BubbleStarve
				if prevEnd == 0 {
					class = BubbleFill
				}
				add(Bubble{Stage: i, Replica: k, Class: class, StartNS: prevEnd, EndNS: e.StartNS})
				// Service ends at start + tᵢ; anything beyond is the
				// in-order commit stretch holding the result.
				if service := e.StartNS + in.TimesNS[i]; e.EndNS > service {
					add(Bubble{Stage: i, Replica: k, Class: BubbleOccupancy, StartNS: service, EndNS: e.EndNS})
				}
				prevEnd = e.EndNS
			}
			add(Bubble{Stage: i, Replica: k, Class: BubbleDrain, StartNS: prevEnd, EndNS: makespan})
		}
		if unused > 0 && makespan > 0 {
			add(Bubble{Stage: i, Replica: firstUnused, Class: BubbleOccupancy,
				Lanes: unused, StartNS: 0, EndNS: makespan})
		}
	}
	return out
}

// stageReports folds the path and bubbles into per-stage rows.
func (a *analysis) stageReports(in trace.Input, names []string, res *Result) []StageReport {
	makespan := a.sched.MakespanNS
	util := a.sched.StageUtilization()
	stages := make([]StageReport, a.n)
	for i := range stages {
		name := fmt.Sprintf("stage %d", i)
		if names != nil && i < len(names) {
			name = names[i]
		}
		stages[i] = StageReport{
			Name:        name,
			Replicas:    a.sched.Replicas[i],
			TimeNS:      in.TimesNS[i],
			BusyNS:      a.sched.StageBusyNS[i],
			Utilization: util[i],
		}
	}
	for _, p := range res.Path {
		stages[p.Stage].CritNS += p.EndNS - p.StartNS
	}
	for i := range stages {
		stages[i].CritShare = frac(stages[i].CritNS, makespan)
		stages[i].SlackNS = makespan - stages[i].CritNS
	}
	for _, b := range res.Bubbles {
		lanes := b.Lanes
		if lanes == 0 {
			lanes = 1
		}
		ns := (b.EndNS - b.StartNS) * float64(lanes)
		switch b.Class {
		case BubbleFill:
			stages[b.Stage].FillNS += ns
		case BubbleDrain:
			stages[b.Stage].DrainNS += ns
		case BubbleStarve:
			stages[b.Stage].StarveNS += ns
		case BubbleOccupancy:
			stages[b.Stage].OccupancyNS += ns
		}
	}
	return stages
}

// rankBySlack fills SlackRank: 1 = least slack (the stage most often
// the binding constraint), ties broken by stage order.
func rankBySlack(stages []StageReport) {
	for i := range stages {
		rank := 1
		for j := range stages {
			if stages[j].SlackNS < stages[i].SlackNS ||
				(stages[j].SlackNS == stages[i].SlackNS && j < i) {
				rank++
			}
		}
		stages[i].SlackRank = rank
	}
}

// sensitivity re-simulates the schedule with ±1 replica per stage and
// records the makespan deltas.
func (a *analysis) sensitivity(in trace.Input, res *Result) {
	replicas := a.sched.Replicas
	for i := range res.Stages {
		res.Stages[i].DeltaPlusNS = a.perturbed(in, replicas, i, +1) - res.MakespanNS
		if replicas[i] > 1 {
			res.Stages[i].DeltaMinusNS = a.perturbed(in, replicas, i, -1) - res.MakespanNS
		}
	}
}

func (a *analysis) perturbed(in trace.Input, replicas []int, stage, delta int) float64 {
	r := append([]int(nil), replicas...)
	r[stage] += delta
	in.Replicas = r
	mResims.Inc()
	return trace.Simulate(in).MakespanNS
}

// frac is num/den with a zero-denominator (and non-finite) guard: no
// NaN/Inf ever leaves the analyzer or reaches a Sim metric.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	f := num / den
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}
