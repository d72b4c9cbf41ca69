package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"gopim/internal/accel"
	"gopim/internal/alloc"
	"gopim/internal/experiments"
	"gopim/internal/explain"
	"gopim/internal/graphgen"
	"gopim/internal/pipeline"
	"gopim/internal/reram"
	"gopim/internal/stage"
	"gopim/internal/trace"
)

// Request-size guards: a planning query must stay a small deterministic
// computation, so the daemon bounds every dimension a client controls.
const (
	// MaxVertices bounds custom graph statistics at the paper's largest
	// dataset scale (products, ~2.4M vertices).
	MaxVertices = 4_000_000
	// MaxFeatureDim bounds feature/hidden/output channel widths.
	MaxFeatureDim = 4096
	// MaxMicroBatch bounds the per-micro-batch vertex count.
	MaxMicroBatch = 4096
	// MaxLayers bounds the GCN depth for custom graphs.
	MaxLayers = 8
)

// GraphStats are caller-supplied graph statistics for planning against
// a workload outside the paper catalog — the same quantities Table III
// records for the catalog datasets.
type GraphStats struct {
	// Name labels the workload in the response (default "custom").
	Name string `json:"name,omitempty"`
	// Vertices and AvgDegree shape the synthetic power-law degree
	// model the planner runs against.
	Vertices  int     `json:"vertices"`
	AvgDegree float64 `json:"avg_degree"`
	// FeatureDim is the input feature width.
	FeatureDim int `json:"feature_dim"`
	// HiddenDim and OutputDim default to 256; Layers defaults to 2.
	HiddenDim int `json:"hidden_dim,omitempty"`
	OutputDim int `json:"output_dim,omitempty"`
	Layers    int `json:"layers,omitempty"`
}

// PlanRequest is one allocation-planning query: "given this graph's
// stats and this crossbar budget, what replica allocation / predicted
// makespan / θ?". Exactly one of Dataset and Graph must be set.
type PlanRequest struct {
	// Dataset names a catalog workload ("ddi", "arxiv", …).
	Dataset string `json:"dataset,omitempty"`
	// Graph supplies custom graph statistics instead.
	Graph *GraphStats `json:"graph,omitempty"`
	// Model selects the what-if simulation model (default "GoPIM");
	// the replica plan itself always comes from Algorithm 1.
	Model string `json:"model,omitempty"`
	// Seed drives the synthetic degree model (default 1).
	Seed int64 `json:"seed,omitempty"`
	// MicroBatch is the target vertices per micro-batch (default 64).
	MicroBatch int `json:"micro_batch,omitempty"`
	// Theta forces the selective-updating threshold in (0,1];
	// 0 selects the paper's adaptive θ.
	Theta float64 `json:"theta,omitempty"`
	// Budget is the replica crossbar budget. 0 derives it from the
	// default chip: total crossbars minus the original mapping.
	Budget int `json:"budget,omitempty"`
	// UsePredictor allocates from MLP-predicted stage times (GoPIM's
	// ML path) instead of the analytic profile.
	UsePredictor bool `json:"use_predictor,omitempty"`
	// Profile picks the predictor's training corpus: "fast" (default)
	// or "full" (the paper-scale ~2200-sample sweep; first use trains
	// for minutes). Only meaningful with UsePredictor.
	Profile string `json:"profile,omitempty"`
	// Simulate adds a what-if accelerator simulation of Model to the
	// response (makespan, energy, crossbars, update traffic).
	Simulate bool `json:"simulate,omitempty"`
	// Explain adds a critical-path analysis of the planned schedule to
	// the response: bottleneck stage, eq.(6) gap, per-stage bubble
	// attribution and ±1-replica sensitivity. The analysis re-simulates
	// at event granularity over a window of at most ExplainWindow
	// micro-batches (steady state needs far fewer); the block is part
	// of the cached body, so it is byte-identical at any worker count.
	Explain bool `json:"explain,omitempty"`
}

// planKey is the normalized, comparable form of a PlanRequest — the
// result cache's key. Two requests that normalize identically are the
// same query and share one cached response body.
type planKey struct {
	dataset     string
	graph       GraphStats // zero for catalog datasets
	model       accel.Kind
	seed        int64
	microBatch  int
	theta       float64
	budget      int
	usePred     bool
	fullProfile bool
	simulate    bool
	explain     bool
}

// badRequestError marks a client-side validation failure (HTTP 400).
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

func badf(format string, args ...any) error {
	return badRequestError{msg: fmt.Sprintf(format, args...)}
}

// decodePlanRequest reads one /v1/plan body and folds it into the
// normalized cache key — the complete untrusted-input surface of the
// planning endpoint, factored out of the HTTP handler so the fuzz
// target (FuzzDecodePlanRequest) can drive it directly with arbitrary
// bytes. Malformed JSON, unknown fields, anything but whitespace after
// the object, and validation violations all come back as
// badRequestError (HTTP 400).
func decodePlanRequest(body io.Reader) (planKey, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req PlanRequest
	if err := dec.Decode(&req); err != nil {
		return planKey{}, badf("decode request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return planKey{}, badf("decode request: data after the JSON object")
	}
	return normalize(req)
}

// normalize validates req and folds defaults into a canonical cache
// key. Every violation is a badRequestError (HTTP 400).
func normalize(req PlanRequest) (planKey, error) {
	var k planKey
	switch {
	case req.Dataset != "" && req.Graph != nil:
		return k, badf("give either dataset or graph, not both")
	case req.Dataset == "" && req.Graph == nil:
		return k, badf("one of dataset or graph is required")
	case req.Dataset != "":
		if _, err := graphgen.ByName(req.Dataset); err != nil {
			return k, badf("unknown dataset %q (gopim list: /v1/datasets)", req.Dataset)
		}
		k.dataset = req.Dataset
	default:
		g := *req.Graph
		if g.Name == "" {
			g.Name = "custom"
		}
		if g.Vertices < 1 || g.Vertices > MaxVertices {
			return k, badf("graph.vertices %d out of range 1..%d", g.Vertices, MaxVertices)
		}
		if g.AvgDegree <= 0 || g.AvgDegree > float64(g.Vertices) || math.IsNaN(g.AvgDegree) || math.IsInf(g.AvgDegree, 0) {
			return k, badf("graph.avg_degree %v out of range (0, vertices]", g.AvgDegree)
		}
		if g.HiddenDim == 0 {
			g.HiddenDim = 256
		}
		if g.OutputDim == 0 {
			g.OutputDim = 256
		}
		if g.Layers == 0 {
			g.Layers = 2
		}
		for _, dim := range []struct {
			name string
			v    int
		}{
			{"feature_dim", g.FeatureDim},
			{"hidden_dim", g.HiddenDim},
			{"output_dim", g.OutputDim},
		} {
			if dim.v < 1 || dim.v > MaxFeatureDim {
				return k, badf("graph.%s %d out of range 1..%d", dim.name, dim.v, MaxFeatureDim)
			}
		}
		if g.Layers < 1 || g.Layers > MaxLayers {
			return k, badf("graph.layers %d out of range 1..%d", g.Layers, MaxLayers)
		}
		k.graph = g
	}

	model := req.Model
	if model == "" {
		model = accel.GoPIM.String()
	}
	var err error
	if k.model, err = accel.KindByName(model); err != nil {
		return k, badRequestError{msg: err.Error()}
	}

	k.seed = req.Seed
	if k.seed == 0 {
		k.seed = 1
	}
	k.microBatch = req.MicroBatch
	if k.microBatch == 0 {
		k.microBatch = 64
	}
	if k.microBatch < 1 || k.microBatch > MaxMicroBatch {
		return k, badf("micro_batch %d out of range 1..%d", req.MicroBatch, MaxMicroBatch)
	}
	if req.Theta < 0 || req.Theta > 1 || math.IsNaN(req.Theta) {
		return k, badf("theta %v out of range [0,1]", req.Theta)
	}
	k.theta = req.Theta
	if req.Budget < 0 {
		return k, badf("budget %d is negative", req.Budget)
	}
	chip := reram.DefaultChip()
	if max := chip.TotalCrossbars() * 64; req.Budget > max {
		return k, badf("budget %d exceeds %d (64 chips' worth of crossbars)", req.Budget, max)
	}
	k.budget = req.Budget
	switch req.Profile {
	case "", "fast":
	case "full":
		k.fullProfile = true
	default:
		return k, badf("profile %q must be \"fast\" or \"full\"", req.Profile)
	}
	k.usePred = req.UsePredictor
	k.simulate = req.Simulate
	k.explain = req.Explain
	return k, nil
}

// stageNames projects the built stages' display names.
func stageNames(stages []stage.Stage) []string {
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name
	}
	return names
}

// dataset materialises the workload the key describes.
func (k planKey) datasetOf() graphgen.Dataset {
	if k.dataset != "" {
		d, err := graphgen.ByName(k.dataset)
		if err != nil {
			panic(err) // normalize validated the name
		}
		return d
	}
	g := k.graph
	return graphgen.Dataset{
		Name:          g.Name,
		PaperVertices: g.Vertices,
		PaperEdges:    int(float64(g.Vertices) * g.AvgDegree / 2),
		PaperAvgDeg:   g.AvgDegree,
		FeatureDim:    g.FeatureDim,
		Layers:        g.Layers,
		InputCh:       g.FeatureDim,
		HiddenCh:      g.HiddenDim,
		OutputCh:      g.OutputDim,
	}
}

// StagePlan is one pipeline stage's slice of the replica plan.
type StagePlan struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// TimeNS is the profiled per-micro-batch latency at one replica.
	TimeNS float64 `json:"time_ns"`
	// AllocTimeNS is the latency the allocator planned against — the
	// MLP prediction when use_predictor is set, else TimeNS.
	AllocTimeNS float64 `json:"alloc_time_ns"`
	Crossbars   int     `json:"crossbars"`
	Replicas    int     `json:"replicas"`
}

// SimSummary is the optional what-if accelerator simulation.
type SimSummary struct {
	Model          string  `json:"model"`
	MakespanNS     float64 `json:"makespan_ns"`
	EnergyPJ       float64 `json:"energy_pj"`
	CrossbarsUsed  int     `json:"crossbars_used"`
	UpdateFraction float64 `json:"update_fraction"`
	AvgIdleFrac    float64 `json:"avg_idle_frac"`
}

// ExplainWindow caps how many micro-batches the explain analysis
// re-simulates at event granularity. Pipelines reach steady state
// within a few multiples of the stage count; a window this size keeps
// the analysis bounded while the fill/steady/drain structure — and so
// the bottleneck and gap figures — is fully represented.
const ExplainWindow = 256

// ExplainStage is one stage's row of the explain block.
type ExplainStage struct {
	Name        string  `json:"name"`
	Replicas    int     `json:"replicas"`
	Utilization float64 `json:"utilization"`
	// CritShare is the fraction of the window's makespan this stage
	// spends on the critical path; SlackRank orders stages by it
	// (1 = bottleneck).
	CritShare float64 `json:"crit_share"`
	SlackRank int     `json:"slack_rank"`
	// Idle attribution by bubble class (ns over the analyzed window).
	FillNS      float64 `json:"fill_ns"`
	DrainNS     float64 `json:"drain_ns"`
	StarveNS    float64 `json:"starve_ns"`
	OccupancyNS float64 `json:"occupancy_ns"`
	// Makespan deltas from ±1 replica of this stage over the window.
	DeltaPlusNS  float64 `json:"delta_plus_ns"`
	DeltaMinusNS float64 `json:"delta_minus_ns"`
}

// ExplainBlock is the opt-in critical-path analysis of the plan.
type ExplainBlock struct {
	// WindowMicroBatches is how many micro-batches were analyzed
	// (min(micro_batches, ExplainWindow)).
	WindowMicroBatches int            `json:"window_micro_batches"`
	MakespanNS         float64        `json:"makespan_ns"`
	Eq6NS              float64        `json:"eq6_ns"`
	Eq6GapNS           float64        `json:"eq6_gap_ns"`
	Eq6GapFrac         float64        `json:"eq6_gap_frac"`
	Bottleneck         string         `json:"bottleneck"`
	PathEvents         int            `json:"path_events"`
	PathDataDep        int            `json:"path_data_dep"`
	PathOccupancy      int            `json:"path_occupancy"`
	PathBarrier        int            `json:"path_barrier"`
	Stages             []ExplainStage `json:"stages"`
}

// PlanResponse answers a PlanRequest. Identical requests produce
// byte-identical serialisations of this struct — the determinism
// contract the handler tests pin.
type PlanResponse struct {
	Dataset      string `json:"dataset"`
	Model        string `json:"model"`
	Seed         int64  `json:"seed"`
	MicroBatch   int    `json:"micro_batch"`
	MicroBatches int    `json:"micro_batches"`
	// Theta is the resolved selective-updating threshold (the adaptive
	// rule's choice when the request left it 0).
	Theta float64 `json:"theta"`
	// Budget is the replica crossbar pool the plan drew from;
	// BudgetUsed is how much of it Algorithm 1 spent.
	Budget     int `json:"budget"`
	BudgetUsed int `json:"budget_used"`
	// PredictedMakespanNS is equation (6)'s closed-form pipeline total
	// for the allocation; ScheduledMakespanNS is the cycle-accurate
	// pipeline simulation of the same plan.
	PredictedMakespanNS float64     `json:"predicted_makespan_ns"`
	ScheduledMakespanNS float64     `json:"scheduled_makespan_ns"`
	Stages              []StagePlan `json:"stages"`
	Simulation          *SimSummary `json:"simulation,omitempty"`
	// Explain is the opt-in critical-path analysis (request
	// "explain": true); omitted otherwise so pre-existing response
	// bodies keep their exact bytes.
	Explain *ExplainBlock `json:"explain,omitempty"`
}

// computePlanStaged answers one normalized planning query. It is a
// pure deterministic function of the key: the same key always yields
// the same response, whatever the concurrency, worker count or request
// order — that is what makes the response cacheable and the cache
// counters Sim-clock material. begin is called with each lifecycle
// stage name ("plan", then "simulate" when the request asks for a
// what-if run) and returns the closer for that stage; the hooks
// observe timing only.
func computePlanStaged(k planKey, begin func(name string) func()) *PlanResponse {
	endPlan := begin("plan")
	d := k.datasetOf()
	w := accel.Workload{
		Dataset:       d,
		Seed:          k.seed,
		MicroBatch:    k.microBatch,
		ThetaOverride: k.theta,
	}
	// A catalog dataset leaves Deg nil: accel fills it from the memoized
	// degree model, so misses that differ only in budget or model share
	// it and the simulate block's run. Custom statistics almost never
	// repeat, so their model is built per miss and freed with it.
	if k.dataset == "" {
		w.Deg = d.SynthDegreeModel(k.seed)
	}
	if k.usePred {
		// Shared immutable model, one per (profile mode, seed), via the
		// predictor memo domain: concurrent first requests coalesce onto
		// one training run. Predictions use the full-update stage
		// structure, as profiled (see experiments.predictTimesFor).
		pred := experiments.SharedPredictor(experiments.Options{
			Seed: k.seed, Fast: !k.fullProfile,
		})
		deg := w.Deg
		if deg == nil {
			deg = accel.DegModelFor(d, k.seed)
		}
		w.PredictedTimes = pred.PredictTimes(stage.Config{
			Chip:       reram.DefaultChip(),
			Dataset:    d,
			Deg:        deg,
			MicroBatch: k.microBatch,
		})
	}
	p := accel.PlanGoPIM(w, k.budget)
	pipeline.RecordSim(len(p.Stages), p.MicroBatches, p.Schedule.MakespanNS)
	res := p.Alloc

	resp := &PlanResponse{
		Dataset:             d.Name,
		Model:               k.model.String(),
		Seed:                k.seed,
		MicroBatch:          k.microBatch,
		MicroBatches:        p.MicroBatches,
		Theta:               w.Theta(),
		Budget:              p.Budget,
		BudgetUsed:          res.Used,
		PredictedMakespanNS: alloc.TotalTimeNS(p.AllocTimesNS, res.Replicas, p.MicroBatches),
		ScheduledMakespanNS: p.Schedule.MakespanNS,
	}
	for i, s := range p.Stages {
		resp.Stages = append(resp.Stages, StagePlan{
			Name:        s.Name,
			Kind:        s.Kind.String(),
			TimeNS:      s.TimeNS,
			AllocTimeNS: p.AllocTimesNS[i],
			Crossbars:   s.Crossbars,
			Replicas:    res.Replicas[i],
		})
	}
	endPlan()

	if k.explain {
		endExplain := begin("explain")
		window := min(p.MicroBatches, ExplainWindow)
		ex := explain.Analyze(trace.Input{
			TimesNS:      p.TimesNS, // true times, as scheduled
			Replicas:     res.Replicas,
			MicroBatches: window,
		}, stageNames(p.Stages), explain.Options{Sensitivity: true})
		block := &ExplainBlock{
			WindowMicroBatches: window,
			MakespanNS:         ex.MakespanNS,
			Eq6NS:              ex.Eq6NS,
			Eq6GapNS:           ex.Eq6GapNS,
			Eq6GapFrac:         ex.Eq6GapFrac,
			Bottleneck:         ex.Bottleneck,
			PathEvents:         len(ex.Path),
			PathDataDep:        ex.PathReasons.DataDep,
			PathOccupancy:      ex.PathReasons.Occupancy,
			PathBarrier:        ex.PathReasons.Barrier,
		}
		for _, s := range ex.Stages {
			block.Stages = append(block.Stages, ExplainStage{
				Name:         s.Name,
				Replicas:     s.Replicas,
				Utilization:  s.Utilization,
				CritShare:    s.CritShare,
				SlackRank:    s.SlackRank,
				FillNS:       s.FillNS,
				DrainNS:      s.DrainNS,
				StarveNS:     s.StarveNS,
				OccupancyNS:  s.OccupancyNS,
				DeltaPlusNS:  s.DeltaPlusNS,
				DeltaMinusNS: s.DeltaMinusNS,
			})
		}
		resp.Explain = block
		endExplain()
	}

	if k.simulate {
		endSim := begin("simulate")
		defer endSim()
		r := accel.Run(k.model, w)
		resp.Simulation = &SimSummary{
			Model:          r.Kind.String(),
			MakespanNS:     r.MakespanNS,
			EnergyPJ:       r.EnergyPJ(),
			CrossbarsUsed:  r.CrossbarsUsed,
			UpdateFraction: r.UpdateFraction,
			AvgIdleFrac:    r.AvgIdleFrac(),
		}
	}
	return resp
}
