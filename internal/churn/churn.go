// Package churn is a deterministic, seed-driven streaming-graph
// mutation engine: power-law-preserving edge insert/delete streams
// over a fixed vertex set, batched into epochs, that the accel
// layer threads through mapping, ISU refresh, endurance wear-out and
// replica allocation as a robustness loop (ROADMAP item 3).
//
// Determinism contract: every random quantity derives from a
// splitmix64 stream keyed by (Seed, epoch) — the internal/fault
// pattern — never by worker count or call order, so a churn-enabled
// run is byte-identical at any worker count. Epoch e's mutations
// depend on the degree state epoch e−1 left behind, so a stream is
// consumed in epoch order by one loop. A Stream keeps two degree
// buffers that take turns, reading an epoch's degrees from one and
// writing the next epoch's into the other: accel's churn loop draws
// epoch e+1's mutation on one worker while another prices epoch e from
// the buffer Mutate only reads.
//
// Power-law preservation: insert endpoints are sampled proportional
// to degree+1 (preferential attachment — the generative process behind
// the catalog's Chung-Lu tails, +1 so isolated vertices can rejoin)
// and delete endpoints proportional to degree (a uniformly random
// edge's endpoint is degree-biased), so sustained churn redistributes
// mass without flattening the tail.
package churn

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"gopim/internal/graphgen"
	"gopim/internal/obs"
)

// Policy selects how the ISU update plan reacts to degree drift.
type Policy string

const (
	// Eager recomputes the plan every epoch — maximum fidelity,
	// maximum planning work.
	Eager Policy = "eager"
	// Threshold recomputes only once the drifted-vertex fraction since
	// the last refresh reaches DefaultDriftThreshold.
	Threshold Policy = "threshold"
	// Adaptive is Threshold plus a θ re-derived from the current
	// average degree at each refresh (mapping.AdaptiveTheta), so the
	// important-set size tracks densification and sparsification.
	Adaptive Policy = "adaptive"
)

// DefaultPolicy is the refresh policy when none is configured.
const DefaultPolicy = Threshold

// DefaultDriftThreshold is the drifted-vertex fraction that triggers a
// plan refresh under the threshold/adaptive policies.
const DefaultDriftThreshold = 0.1

// ParsePolicy maps a flag string to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case Eager, Threshold, Adaptive:
		return Policy(s), nil
	case "":
		return DefaultPolicy, nil
	}
	return "", fmt.Errorf("churn: unknown refresh policy %q (want eager, threshold or adaptive)", s)
}

// Config describes one churn scenario.
type Config struct {
	// Rate is the per-epoch edge mutation intensity: round(Rate × E)
	// insert/delete operations are drawn each epoch, where E is the
	// epoch-start edge count. 0 disables edge churn.
	Rate float64
	// Seed drives every mutation stream.
	Seed int64
	// Policy is the ISU refresh policy (default Threshold).
	Policy Policy
	// DaysPerEpoch scales the endurance coupling: each churn epoch
	// represents this many days of the array's production write
	// traffic when accumulating wear (default 1).
	DaysPerEpoch float64
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case math.IsNaN(c.Rate) || c.Rate < 0 || c.Rate > 1:
		return fmt.Errorf("churn: rate %v must be in [0,1]", c.Rate)
	case math.IsNaN(c.DaysPerEpoch) || math.IsInf(c.DaysPerEpoch, 0) || c.DaysPerEpoch < 0:
		return fmt.Errorf("churn: days/epoch %v must be finite and non-negative", c.DaysPerEpoch)
	}
	if c.Policy != "" {
		if _, err := ParsePolicy(string(c.Policy)); err != nil {
			return err
		}
	}
	return nil
}

// WithDefaults fills the zero-value knobs.
func (c Config) WithDefaults() Config {
	if c.Policy == "" {
		c.Policy = DefaultPolicy
	}
	if c.DaysPerEpoch == 0 {
		c.DaysPerEpoch = 1
	}
	return c
}

// Enabled reports whether the configuration mutates anything.
func (c Config) Enabled() bool { return c.Rate > 0 }

// ShouldRefresh decides whether the ISU plan is recomputed given the
// drifted-vertex fraction accumulated since the last refresh.
func (c Config) ShouldRefresh(drift float64) bool {
	switch c.Policy {
	case Eager:
		return true
	default: // Threshold, Adaptive and the zero value
		return drift >= DefaultDriftThreshold
	}
}

// Delta summarises one epoch's mutations.
type Delta struct {
	EdgesAdded   int
	EdgesRemoved int
	// Changed lists the vertex ids whose degree differs from the epoch
	// start, ascending and unique. Stream.Mutate compares only the ids
	// its batch touched, against their epoch-start degrees; for the
	// non-NaN degrees this module uses, that is every id whose degree
	// differs. A Stream writes its next-but-one delta's list into the
	// same array, so a caller that keeps a delta longer copies it.
	Changed []int
}

// Stream draws per-epoch mutation deltas over a degree sequence — the
// model-level view accel's timing loop runs on, where a vertex's
// degree is the quantity of interest and edges are implicit. The stream
// owns the sequence: Reset starts it and each Mutate returns the next
// epoch's. Mutate reuses the stream's buffers, so one stream serves one
// driver loop.
type Stream struct {
	cfg Config
	// cur holds the degrees the last call returned and next the ones
	// before them, which the next Mutate overwrites. A disabled stream
	// never writes, so one copy serves as both.
	cur, next []float64
	// Per-epoch scratch, kept across epochs: the two endpoint pickers
	// and a bitset of the ids the last batch touched. The bits stay set
	// until the next call has brought next up to date from them.
	insert, remove picker
	touched        []uint64
	// changed[1] is the array of the last delta's Changed list,
	// changed[0] the one before it, which the next call reuses.
	changed [2][]int
}

// NewStream validates the configuration and builds a stream over an
// empty sequence; Reset gives it one.
func NewStream(cfg Config) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Stream{cfg: cfg.WithDefaults()}, nil
}

// Config returns the defaulted configuration.
func (s *Stream) Config() Config { return s.cfg }

// Reset starts the stream over a copy of degs, which it never writes,
// and returns the copy. Like a slice Mutate returns, the copy stays
// unwritten until the second Mutate call after it.
func (s *Stream) Reset(degs []float64) []float64 {
	s.cur, s.touched = slices.Clone(degs), nil
	s.next = s.cur
	if s.cfg.Enabled() {
		s.next = slices.Clone(degs)
		s.touched = make([]uint64, (len(degs)+63)/64)
	}
	return s.cur
}

// Mutate applies epoch e's mutation batch to the degrees the last call
// returned and returns the result with the delta. The vertex count is
// fixed; endpoint weights are fixed at epoch start, so one epoch's
// draws are order-free within the batch.
//
// The stream keeps two degree buffers that take turns: a call reads the
// last returned one and writes the other, so a returned slice stays
// unwritten until the second call after the one that returned it, and
// another goroutine may read it while the next call runs. The write
// buffer differs from the read one only at the ids the last call
// touched, and a call first copies those, bit for bit, so none copies
// all n degrees. Copying by touched id rather than by Delta.Changed
// matters for signed zeros: a degree that goes −0 → 1 → +0 compares
// equal, so it is not in Changed, but its bits moved.
func (s *Stream) Mutate(epoch int) ([]float64, Delta) {
	var d Delta
	start, next := s.cur, s.next
	n := len(start)
	if !s.cfg.Enabled() || n == 0 {
		return start, d // a disabled stream never touches an id
	}
	touched := s.touched
	for w, word := range touched {
		if word == 0 {
			continue
		}
		touched[w] = 0
		for ; word != 0; word &= word - 1 {
			v := w<<6 | bits.TrailingZeros64(word)
			next[v] = start[v]
		}
	}
	rng := rand.New(rand.NewSource(streamSeed(s.cfg.Seed, tagEpoch, int64(epoch))))
	insert, remove := &s.insert, &s.remove
	totalDeg := resetPair(insert, remove, start)
	touch := func(v int) { touched[v>>6] |= 1 << (v & 63) }

	ops := int(math.Round(s.cfg.Rate * totalDeg / 2))
	for op := 0; op < ops; op++ {
		if rng.Float64() < 0.5 {
			u, v := insert.pick(rng), insert.pick(rng)
			if u == v {
				continue
			}
			touch(u)
			touch(v)
			next[u]++
			next[v]++
			d.EdgesAdded++
		} else {
			u, v := remove.pick(rng), remove.pick(rng)
			if u < 0 || v < 0 || u == v || next[u] < 1 || next[v] < 1 {
				continue
			}
			touch(u)
			touch(v)
			next[u]--
			next[v]--
			d.EdgesRemoved++
		}
	}

	// Touched ids in ascending order; the bitset stays for the next
	// call. The changed ids are among them, so an array of the touched
	// count holds the list.
	count := 0
	for _, word := range touched {
		count += bits.OnesCount64(word)
	}
	s.changed[0], s.changed[1] = s.changed[1], s.changed[0]
	changed := slices.Grow(s.changed[1][:0], count)
	for w, word := range touched {
		for ; word != 0; word &= word - 1 {
			if v := w<<6 | bits.TrailingZeros64(word); next[v] != start[v] {
				changed = append(changed, v)
			}
		}
	}
	s.changed[1] = changed
	if len(changed) > 0 {
		d.Changed = changed
	}
	s.cur, s.next = next, start
	return next, d
}

// GraphState threads churn through an explicit edge set — the view the
// accuracy experiments need, where mutated adjacency feeds real GCN
// training. Mutations follow the same per-epoch streams as Stream but
// operate on concrete edges (tagGraph, so the two views never share a
// stream).
type GraphState struct {
	n       int
	edges   [][2]int // canonical u < v, insertion order
	present map[[2]int]bool
	degs    []int
}

// NewGraphState snapshots a graph's edge set. Edge order is the
// deterministic (u, v)-ascending adjacency walk.
func NewGraphState(g *graphgen.Graph) *GraphState {
	gs := &GraphState{n: g.N, present: map[[2]int]bool{}, degs: append([]int(nil), g.Degrees()...)}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				gs.edges = append(gs.edges, [2]int{u, v})
				gs.present[[2]int{u, v}] = true
			}
		}
	}
	return gs
}

// Degrees returns the current degree sequence as float64 (the mapping
// layer's currency). Freshly allocated each call.
func (gs *GraphState) Degrees() []float64 {
	out := make([]float64, len(gs.degs))
	for i, d := range gs.degs {
		out[i] = float64(d)
	}
	return out
}

// Graph materialises the current edge set as a graphgen.Graph.
func (gs *GraphState) Graph() *graphgen.Graph {
	return graphgen.FromEdges(gs.n, gs.edges)
}

// insertRetries bounds the rejection sampling for an insert endpoint
// pair that is neither a self-loop nor an existing edge.
const insertRetries = 8

// Mutate applies epoch e's mutation batch to the edge set (vertex
// count is fixed: accuracy runs carry per-vertex features and labels,
// so arrivals make no sense there).
func (gs *GraphState) Mutate(cfg Config, epoch int) Delta {
	var d Delta
	cfg = cfg.WithDefaults()
	if cfg.Rate <= 0 || gs.n < 2 {
		return d
	}
	rng := rand.New(rand.NewSource(streamSeed(cfg.Seed, tagGraph, int64(epoch))))
	degF := gs.Degrees()
	var insert picker
	insert.reset(degF, 1)
	orig := append([]int(nil), gs.degs...)
	ops := int(math.Round(cfg.Rate * float64(len(gs.edges))))
	for op := 0; op < ops; op++ {
		if rng.Float64() < 0.5 {
			for try := 0; try < insertRetries; try++ {
				u, v := insert.pick(rng), insert.pick(rng)
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				key := [2]int{u, v}
				if gs.present[key] {
					continue
				}
				gs.present[key] = true
				gs.edges = append(gs.edges, key)
				gs.degs[u]++
				gs.degs[v]++
				d.EdgesAdded++
				break
			}
		} else if len(gs.edges) > 0 {
			i := rng.Intn(len(gs.edges))
			e := gs.edges[i]
			gs.edges[i] = gs.edges[len(gs.edges)-1]
			gs.edges = gs.edges[:len(gs.edges)-1]
			delete(gs.present, e)
			gs.degs[e[0]]--
			gs.degs[e[1]]--
			d.EdgesRemoved++
		}
	}
	for v := 0; v < gs.n; v++ {
		if gs.degs[v] != orig[v] {
			d.Changed = append(d.Changed, v)
		}
	}
	sort.Ints(d.Changed)
	return d
}

// picker samples vertex ids proportional to degree+bias via a prefix
// sum frozen at construction (epoch-start weights). A pick returns what
// sort.SearchFloat64s(prefix, x) would, the first id whose cumulative
// weight reaches x, without the binary search: the guide table splits
// [0, total] into one equal bucket per guideStride ids and records the
// first id in or past each bucket, so a pick starts next to its answer
// and walks about a cache line of prefix.
type picker struct {
	prefix []float64 // cumulative weights
	guide  []int32   // guide[b]: first id whose prefix lies in bucket ≥ b
	total  float64
	scale  float64 // buckets per unit of weight
}

// guideStride is the mean number of ids per guide bucket: eight
// prefix entries fill one 64-byte cache line, and a table a quarter of
// a byte per id stays cache-resident.
const guideStride = 8

// reset rebuilds the picker for degs, reusing its buffers.
func (p *picker) reset(degs []float64, bias float64) {
	n := len(degs)
	p.prefix = slices.Grow(p.prefix[:0], n)[:n]
	prefix := p.prefix
	sum := 0.0
	for i, g := range degs {
		w := g + bias
		if w < 0 {
			w = 0
		}
		sum += w
		prefix[i] = sum
	}
	p.index(sum)
}

// resetPair is insert.reset(degs, 1) and remove.reset(degs, 0) in one
// pass over the degrees, returning their plain sum as well. That sum
// is its own accumulator: negative degrees count in it, while both
// pickers clamp their weights at zero.
func resetPair(insert, remove *picker, degs []float64) (total float64) {
	n := len(degs)
	insert.prefix = slices.Grow(insert.prefix[:0], n)[:n]
	remove.prefix = slices.Grow(remove.prefix[:0], n)[:n]
	ip, rp := insert.prefix, remove.prefix
	var isum, rsum float64
	for i, g := range degs {
		wi, wr := g+1, g
		if wi < 0 {
			wi = 0
		}
		if wr < 0 {
			wr = 0
		}
		isum += wi
		rsum += wr
		ip[i], rp[i] = isum, rsum
		total += g
	}
	insert.index(isum)
	remove.index(rsum)
	return total
}

// index records the weight total and builds the guide table over the
// filled prefix sums.
func (p *picker) index(sum float64) {
	p.total = sum
	if sum <= 0 {
		return
	}
	prefix := p.prefix
	n := len(prefix)
	m := max(1, n/guideStride)
	p.guide = slices.Grow(p.guide[:0], m)[:m]
	// guide[b] is the first id whose prefix falls in bucket b or later.
	// Buckets ascend with the ids, so writing each id into its bucket
	// from the last id down leaves every bucket's first id, and a
	// backward running minimum hands an empty bucket its successor's.
	// Both passes are branch-free stores.
	scale := float64(m) / sum
	p.scale = scale
	guide := p.guide
	for b := range guide {
		guide[b] = int32(n)
	}
	for i := n - 1; i >= 0; i-- {
		guide[bucket(prefix[i], scale, m)] = int32(i)
	}
	next := int32(n)
	for b := m - 1; b >= 0; b-- {
		next = min(next, guide[b])
		guide[b] = next
	}
}

// bucket returns the guide bucket of a cumulative weight in [0, total]
// among m buckets of 1/scale weight each.
func bucket(x, scale float64, m int) int {
	b := int(x * scale)
	if uint(b) >= uint(m) {
		b = m - 1
	}
	return b
}

// pick returns a weighted vertex id, or -1 when all weights are zero.
func (p *picker) pick(rng *rand.Rand) int {
	if p.total <= 0 {
		return -1
	}
	return p.search(rng.Float64() * p.total)
}

// search returns sort.SearchFloat64s(p.prefix, x) for x in [0, total].
func (p *picker) search(x float64) int {
	// The answer's prefix is at least x and bucket is monotone (a
	// rounded product, truncated and clamped), so the answer's bucket
	// is at least x's and guide[bucket(x)] is at or before the answer;
	// walking forward passes only ids in x's bucket.
	i := int(p.guide[bucket(x, p.scale, len(p.guide))])
	for i < len(p.prefix) && p.prefix[i] < x {
		i++
	}
	return i
}

// Stream tags keep the degree-model and explicit-graph views on
// independent splitmix64 streams.
const (
	tagEpoch = 0x43484e45 // "CHNE"
	tagGraph = 0x43484e47 // "CHNG"
)

// streamSeed derives the seed of stream (base, key, i) with a
// splitmix64-style mix — the fault.streamSeed pattern. The stream
// depends only on its stable identity, never on worker count or
// query order.
func streamSeed(base, key, i int64) int64 {
	z := uint64(base) ^ uint64(key)*0x9e3779b97f4a7c15
	z += 0x9e3779b97f4a7c15 * uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Flag-fallback metric, Wall-side like fault.flags_invalid: whether a
// flag was mis-typed is a property of the invocation, not the
// simulated workload.
var mFlagsInvalid = obs.NewCounter("churn.flags_invalid", obs.Wall,
	"invalid -churn-*/-refresh-policy flag values replaced by safe defaults")

// FromFlags validates the CLI's churn flags before any experiment
// runs, routing invalid values through the obs warn path + counter and
// falling back to safe defaults — the GOPIM_WORKERS pattern: a typo
// degrades the run, it never kills it.
func FromFlags(rate float64, seed int64, policy string) Config {
	if math.IsNaN(rate) || rate < 0 || rate > 1 {
		mFlagsInvalid.Inc()
		obs.Warnf("churn", "ignoring invalid -churn-rate %v (want a fraction in [0,1]); churn disabled", rate)
		rate = 0
	}
	pol, err := ParsePolicy(policy)
	if err != nil {
		mFlagsInvalid.Inc()
		obs.Warnf("churn", "ignoring invalid -refresh-policy %q (want eager, threshold or adaptive); using %q", policy, DefaultPolicy)
		pol = DefaultPolicy
	}
	return Config{Rate: rate, Seed: seed, Policy: pol}.WithDefaults()
}
