package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gopim/internal/accel"
	"gopim/internal/alloc"
	"gopim/internal/experiments"
	"gopim/internal/explain"
	"gopim/internal/graphgen"
	"gopim/internal/mapping"
	"gopim/internal/obs"
	"gopim/internal/pipeline"
	"gopim/internal/predictor"
	"gopim/internal/reram"
	"gopim/internal/serve"
	"gopim/internal/simmemo"
	"gopim/internal/stage"
	"gopim/internal/trace"
)

// Plan script shape: planRequests requests per run, of which
// planNewKeyFrac ask a key for the first time (cache misses); the rest
// repeat earlier keys with Zipf popularity. 1000 requests leave ten
// samples beyond p99.
const (
	planRequests   = 1000
	planNewKeyFrac = 0.07
	planZipfS      = 1.2
)

// planModels are the what-if models simulate keys rotate through.
var planModels = []accel.Kind{
	accel.GoPIM, accel.GoPIMVanilla, accel.ReFlip, accel.Serial, accel.PlusPP,
	accel.PlusISU, accel.Pipelayer, accel.ReGraphX, accel.SlimGNNLike,
}

// planScript is one seeded request sequence: keys in the order they
// first appear, and the key each request asks.
type planScript struct {
	keys  []serve.PlanRequest
	order []int
	// predSeed is the request seed every use_predictor key carries, so
	// one shared predictor, trained during set-up, serves them all.
	predSeed int64
}

// genScript builds the plan workload's requests from seed. The key mix
// is fixed so every seed costs about the same: a fifth of the keys are
// small catalog datasets (ddi, Cora) and the rest custom graph
// statistics spread log-uniformly over 10k–300k vertices, cycling
// through average degrees, feature widths and depths; a quarter ask
// simulate, a tenth explain and a tenth use_predictor. The seed moves
// each size within its stratum, the degree-model seeds, the order keys
// first appear in, and which earlier keys repeat.
func genScript(seed int64, n int) planScript {
	rng := rand.New(rand.NewSource(seed))
	k := int(math.Round(float64(n) * planNewKeyFrac))
	s := planScript{predSeed: 1 + int64(uint64(seed)%1000)}
	custom := k - k/5 // every fifth key names a catalog dataset
	keys := make([]serve.PlanRequest, k)
	c := 0
	for i := range keys {
		req := serve.PlanRequest{Seed: 1 + rng.Int63n(1000)}
		if i%5 == 4 {
			req.Dataset = []string{"ddi", "Cora"}[(i/5)%2]
			req.MicroBatch = []int{32, 64, 128}[(i/5)%3]
		} else {
			u := (float64(c) + 0.4 + 0.2*rng.Float64()) / float64(custom)
			req.Graph = &serve.GraphStats{
				Vertices:   int(10_000 * math.Pow(30, u)),
				AvgDegree:  []float64{4, 8, 16, 32, 64}[c%5],
				FeatureDim: []int{64, 128, 256, 512}[c%4],
				Layers:     2 + c%2,
			}
			c++
		}
		if i%4 == 1 {
			req.Simulate = true
			req.Model = planModels[(i/4)%len(planModels)].String()
		}
		req.Explain = i%10 == 3
		if i%10 == 7 {
			req.UsePredictor = true
			req.Seed = s.predSeed
		}
		keys[i] = req
	}
	// Shuffle the order keys first appear in; their mix stays fixed.
	rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	s.keys = keys

	s.order = make([]int, n)
	introduced := 0
	var zipf *rand.Zipf
	for i := range s.order {
		if introduced < k && i >= introduced*n/k {
			s.order[i] = introduced
			introduced++
			zipf = rand.NewZipf(rng, planZipfS, 1, uint64(introduced-1))
			continue
		}
		s.order[i] = int(zipf.Uint64())
	}
	return s
}

// planWorkload runs the planning daemon (serve.New(...).Start) on
// loopback under a closed loop of `workers` clients, each waiting for
// its reply before sending the next request of the seeded script.
//
// Why: misses are almost all mapping from-scratch sorts (for arxiv,
// InterleavedLayout and NewUpdatePlan take most of a plan), while hits
// exercise the serve/singleflight/obs request path. gcn and tensor do
// no work here. Set-up pays server start and shared-predictor training.
type planWorkload struct {
	script planScript
	srv    *serve.Server
	url    string
	client *http.Client
	tr     *ledger
	pred   *predictor.TimePredictor
	setupM map[string]float64
}

func (p *planWorkload) setup(seed int64, tr *ledger) error {
	p.script = genScript(seed, planRequests)
	p.tr = tr
	cfg := serve.Config{Addr: "127.0.0.1:0", Workers: workers}
	if tr != nil {
		cfg.TraceSample = 1
	}
	p.srv = serve.New(cfg)
	if err := p.srv.Start(); err != nil {
		return fmt.Errorf("plan: start daemon: %w", err)
	}
	p.url = "http://" + p.srv.Addr().String() + "/v1/plan"
	p.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true,
	}}
	tr.do("setup.predictor", setupSpan, 0, func() {
		p.pred = experiments.SharedPredictor(experiments.Options{Seed: p.script.predSeed, Fast: true})
	})
	r := readRegistry()
	p.setupM = map[string]float64{
		"predictor.setup.train_calls":     r.count("predictor.train_calls"),
		"predictor.setup.train.busy_s":    r.seconds("predictor.train_ns"),
		"predictor.setup.profile_samples": r.count("predictor.profile_samples"),
	}
	return nil
}

// reply is one request's outcome, checked after the load ends so the
// clients' loop stays lean.
type reply struct {
	status int
	body   []byte
	err    error
	lat    time.Duration
}

func (p *planWorkload) run(tr *ledger) (outcome, error) {
	bodies := make([][]byte, len(p.script.keys))
	for i, k := range p.script.keys {
		b, err := json.Marshal(k)
		if err != nil {
			return outcome{}, fmt.Errorf("plan: encode request: %w", err)
		}
		bodies[i] = b
	}
	replies := make([]reply, len(p.script.order))
	root := tr.open("plan.run", -1, 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(replies) {
					return
				}
				id := tr.open("plan.request", root, lane)
				replies[i] = p.post(bodies[p.script.order[i]])
				tr.close(id)
			}
		}(c + 1)
	}
	wg.Wait()
	tr.close(root)

	out := outcome{attempted: len(replies)}
	first := make([][]byte, len(p.script.keys))
	for i, r := range replies {
		out.latMS = append(out.latMS, float64(r.lat)/1e6)
		k := p.script.order[i]
		switch {
		case r.err != nil, r.status != http.StatusOK:
			out.failed++
		case first[k] == nil:
			if err := checkPlan(r.body); err != nil {
				out.failed++
				continue
			}
			first[k] = r.body
		case !bytes.Equal(first[k], r.body):
			out.failed++
		}
	}
	h := sha256.New()
	for k, b := range first {
		fmt.Fprintf(h, "%s\n", bodies[k])
		h.Write(b)
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	if out.failed > 0 {
		return out, fmt.Errorf("plan: %d of %d requests failed", out.failed, out.attempted)
	}
	return out, nil
}

// post sends one planning request and reads the whole reply.
func (p *planWorkload) post(body []byte) reply {
	t0 := time.Now()
	resp, err := p.client.Post(p.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, lat: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: b, err: err, lat: time.Since(t0)}
}

// checkPlan verifies a reply decodes to a plan with at least one stage
// and at least one replica per stage.
func checkPlan(body []byte) error {
	var resp serve.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("plan: decode reply: %w", err)
	}
	if len(resp.Stages) == 0 {
		return fmt.Errorf("plan: reply has no stages")
	}
	for _, s := range resp.Stages {
		if s.Replicas < 1 {
			return fmt.Errorf("plan: stage %s has %d replicas", s.Name, s.Replicas)
		}
	}
	return nil
}

func (p *planWorkload) layers(m map[string]float64, _ float64) {
	for k, v := range p.setupM {
		m[k] = v
	}
	// The daemon's own lifecycle-stage spans (TraceSample 1).
	if t := obs.CurrentTracer(); t != nil {
		stageSum := map[string]float64{}
		for _, e := range t.Events() {
			if e.Ph == "X" {
				stageSum[e.Name] += e.Dur / 1e6
			}
		}
		m["serve.cache_lookup.busy_s"] = stageSum["serve.cache_lookup"]
		m["serve.marshal.busy_s"] = stageSum["serve.marshal"]
		m["serve.queue.wait_s"] = stageSum["serve.admission"] + stageSum["serve.workspace_acquire"]
		for _, st := range []string{"plan", "simulate", "explain"} {
			m["serve."+st+".busy_s"] = stageSum["serve."+st]
		}
	}
	// Replay every distinct key's public calls from cold memo caches.
	simmemo.ResetAll()
	root := p.tr.open("plan.replay", -1, 0)
	for _, k := range p.script.keys {
		p.replay(root, k)
	}
	p.tr.close(root)
	self := p.tr.selfTimes()
	for _, c := range replayCalls {
		m[c+".busy_s"] = self[c].Seconds()
	}
}

// replay makes the public calls a plan for req makes, on the same
// inputs and with the daemon's defaults, each inside its own span.
func (p *planWorkload) replay(parent int, req serve.PlanRequest) {
	tr := p.tr
	d := planDataset(req)
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	mb := req.MicroBatch
	if mb == 0 {
		mb = 64
	}
	theta := req.Theta
	if theta == 0 {
		theta = d.AdaptiveTheta()
	}
	chip := reram.DefaultChip()
	var deg *graphgen.DegreeModel
	tr.do("graphgen.synth", parent, 0, func() { deg = d.SynthDegreeModel(seed) })
	cfg := stage.Config{Chip: chip, Dataset: d, Deg: deg, MicroBatch: mb}
	tr.do("mapping.layout", parent, 0, func() {
		cfg.Layout = mapping.InterleavedLayout(deg.DegreesByIndex, chip.CrossbarRows)
	})
	tr.do("mapping.plan", parent, 0, func() {
		cfg.Plan = mapping.NewUpdatePlan(deg.DegreesByIndex, theta, 20)
	})
	var stages []stage.Stage
	tr.do("stage.build", parent, 0, func() { stages = stage.Build(cfg) })

	numMB := max(1, (deg.N+mb-1)/mb)
	budget := req.Budget
	if budget == 0 {
		budget = max(0, chip.TotalCrossbars()-stage.TotalCrossbars(stages))
	}
	areq := alloc.FromStages(stages, budget, numMB)
	areq.MaxReplicas = make([]int, len(stages))
	for i := range areq.MaxReplicas {
		areq.MaxReplicas[i] = numMB * accel.IntraSplit
	}
	times := areq.TimesNS
	if req.UsePredictor {
		tr.do("predictor.predict", parent, 0, func() {
			times = p.pred.PredictTimes(stage.Config{Chip: chip, Dataset: d, Deg: deg, MicroBatch: mb})
		})
	}
	mlReq := areq
	mlReq.TimesNS = times
	var res alloc.Result
	tr.do("alloc.greedy", parent, 0, func() { res = alloc.Greedy(mlReq) })
	tr.do("pipeline.simulate", parent, 0, func() {
		pipeline.Simulate(pipeline.Input{TimesNS: areq.TimesNS, Replicas: res.Replicas,
			MicroBatches: numMB, Mode: pipeline.IntraInterBatch})
	})
	if req.Explain {
		names := make([]string, len(stages))
		for i, s := range stages {
			names[i] = s.Name
		}
		tr.do("explain.analyze", parent, 0, func() {
			explain.Analyze(trace.Input{TimesNS: areq.TimesNS, Replicas: res.Replicas,
				MicroBatches: min(numMB, serve.ExplainWindow)}, names, explain.Options{Sensitivity: true})
		})
	}
	if req.Simulate {
		w := accel.Workload{Dataset: d, Deg: deg, Seed: seed, MicroBatch: mb, ThetaOverride: req.Theta}
		if req.UsePredictor {
			w.PredictedTimes = times
		}
		kind := accel.GoPIM
		for _, k := range planModels {
			if k.String() == req.Model {
				kind = k
			}
		}
		tr.do("accel.run", parent, 0, func() { accel.Run(kind, w) })
	}
}

// planDataset is the workload a request describes, built the way the
// daemon builds it: a catalog entry, or custom statistics with hidden
// and output widths defaulting to 256.
func planDataset(req serve.PlanRequest) graphgen.Dataset {
	if req.Graph == nil {
		d, err := graphgen.ByName(req.Dataset)
		if err != nil {
			panic(err) // genScript only names catalog datasets
		}
		return d
	}
	g := *req.Graph
	name := g.Name
	if name == "" {
		name = "custom"
	}
	hidden, output, layers := g.HiddenDim, g.OutputDim, g.Layers
	if hidden == 0 {
		hidden = 256
	}
	if output == 0 {
		output = 256
	}
	if layers == 0 {
		layers = 2
	}
	return graphgen.Dataset{
		Name:          name,
		PaperVertices: g.Vertices,
		PaperEdges:    int(float64(g.Vertices) * g.AvgDegree / 2),
		PaperAvgDeg:   g.AvgDegree,
		FeatureDim:    g.FeatureDim,
		Layers:        layers,
		InputCh:       g.FeatureDim,
		HiddenCh:      hidden,
		OutputCh:      output,
	}
}

func (p *planWorkload) close() {
	if p.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = p.srv.Shutdown(ctx) // the process exits next; a slow drain changes nothing measured
	}
	if p.client != nil {
		p.client.CloseIdleConnections()
	}
}
