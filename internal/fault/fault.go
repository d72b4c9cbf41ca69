// Package fault is a deterministic, seed-driven ReRAM fault model:
// stuck-at-0/1 cell maps per crossbar, write-variation retry costs,
// and endurance-driven wear-out where cells that exhaust the §IV-A
// 10⁸ write budget become stuck. The rest of the stack consumes it
// through four views:
//
//   - reram: a write-verify retry factor that stretches row programming
//     (RetryFactor), adding latency and — through the energy model,
//     which prices writes by ProgramRowNS — energy per retry.
//   - alloc: crossbars whose stuck-cell density exceeds the retirement
//     threshold leave the replica free pool (Retired); the greedy
//     allocator degrades to fewer replicas, never a panic.
//   - mapping: the same per-crossbar verdict marks dead groups so
//     interleaved striping places vertex stripes on healthy crossbars
//     (DeadGroups).
//   - quant/gcn: StuckMask pins individual cell slices of written
//     values to 0 or full-scale, so training sees the precision damage
//     a worn array inflicts.
//
// Everything is off by default (a nil or zero-rate model changes no
// code path) and byte-deterministic when on: every random quantity
// derives from a splitmix64 stream keyed by (Seed, stable index) — the
// same per-unit-stream pattern as predictor's profile generation —
// never by worker count or execution order.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"gopim/internal/endurance"
	"gopim/internal/obs"
)

// DefaultVerifyMax is the write-verify retry budget when none is
// configured: after this many program-verify iterations the write is
// declared done (matching the Table II chip's 8 verify cycles).
const DefaultVerifyMax = 8

// Config describes one fault-injection scenario.
type Config struct {
	// Rate is the per-cell stuck-at fault probability in [0, 1].
	// 0 disables the model entirely.
	Rate float64
	// Seed drives every fault map; fault-enabled runs are
	// byte-identical for a fixed seed at any worker count.
	Seed int64
	// VerifyMax bounds the program-verify loop per row write
	// (default DefaultVerifyMax).
	VerifyMax int
	// RetireThreshold is the stuck-cell density above which a crossbar
	// is retired from the replica free pool. 0 means 2×Rate: a crossbar
	// twice as faulty as the array average is not worth repairing
	// around.
	RetireThreshold float64
	// WearWritesPerCell, when positive, adds endurance wear-out on top
	// of Rate: the stuck fraction grows with the lognormal lifetime
	// model around endurance.ReRAMWriteLimit (WearStuckFraction).
	WearWritesPerCell float64
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case math.IsNaN(c.Rate) || c.Rate < 0 || c.Rate > 1:
		return fmt.Errorf("fault: rate %v must be in [0,1]", c.Rate)
	case c.VerifyMax < 0:
		return fmt.Errorf("fault: verify budget %d must be positive", c.VerifyMax)
	case math.IsNaN(c.RetireThreshold) || c.RetireThreshold < 0 || c.RetireThreshold > 1:
		return fmt.Errorf("fault: retire threshold %v must be in [0,1]", c.RetireThreshold)
	case math.IsNaN(c.WearWritesPerCell) || math.IsInf(c.WearWritesPerCell, 0) || c.WearWritesPerCell < 0:
		return fmt.Errorf("fault: wear writes/cell %v must be finite and non-negative", c.WearWritesPerCell)
	}
	return nil
}

// Model is a ready-to-query fault map. The zero value and nil both
// behave as "no faults". Models are safe for concurrent use: the
// experiment fan-out shares one model across workers.
type Model struct {
	cfg Config
	// rate is EffectiveRate, fixed by cfg: every per-crossbar query
	// reads it instead of re-evaluating the wear model.
	rate float64

	mu      sync.Mutex
	retired map[int]float64  // cells-per-crossbar → sampled retired fraction
	laws    map[int]*poisson // cells-per-crossbar → stuck-cell law
}

// New builds a model, validating the configuration. VerifyMax 0 takes
// the default.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.VerifyMax == 0 {
		cfg.VerifyMax = DefaultVerifyMax
	}
	if cfg.RetireThreshold == 0 {
		cfg.RetireThreshold = 2 * cfg.Rate
	}
	rate := cfg.Rate
	if cfg.WearWritesPerCell > 0 {
		rate = 1 - (1-rate)*(1-WearStuckFraction(cfg.WearWritesPerCell))
	}
	return &Model{cfg: cfg, rate: rate, retired: map[int]float64{}, laws: map[int]*poisson{}}, nil
}

// MustNew is New for configurations known valid at the call site.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Enabled reports whether the model injects anything. A nil model is
// disabled, so call sites thread *Model without nil checks.
func (m *Model) Enabled() bool {
	return m != nil && m.EffectiveRate() > 0
}

// Config returns the (defaulted) configuration.
func (m *Model) Config() Config {
	if m == nil {
		return Config{}
	}
	return m.cfg
}

// EffectiveRate is the per-cell stuck probability including wear-out:
// a cell is stuck if manufacturing variation or exhausted endurance
// claims it, 1 − (1−Rate)·(1−wear).
func (m *Model) EffectiveRate() float64 {
	if m == nil {
		return 0
	}
	return m.rate
}

// RetryFactor is the expected number of program-verify iterations for
// one row of cellsPerRow cells, relative to the fault-free single
// pass: a row re-enters the loop while any of its cells still misses
// its target conductance, so the per-iteration failure probability is
// q = 1 − (1−rate)^cells and the truncated-geometric expectation is
// (1 − q^VerifyMax)/(1 − q), clamped by the verify budget. 1.0 when
// disabled — reram gates on > 1, so the fault-free timing path is
// untouched bit for bit.
func (m *Model) RetryFactor(cellsPerRow int) float64 {
	rate := m.EffectiveRate()
	if rate == 0 || cellsPerRow <= 0 {
		return 1
	}
	q := 1 - math.Pow(1-rate, float64(cellsPerRow))
	if q >= 1 {
		return float64(m.cfg.VerifyMax)
	}
	e := (1 - math.Pow(q, float64(m.cfg.VerifyMax))) / (1 - q)
	if e < 1 {
		e = 1
	}
	return e
}

// retireSample is how many crossbars the retired-fraction estimate
// draws. The chip has 16.7M crossbars — far too many to enumerate per
// run — but the fraction of a fixed deterministic sample converges
// fast and depends only on (Seed, cells), never on the caller.
const retireSample = 4096

// StuckCells returns crossbar id's deterministic stuck-cell count: the
// inverse CDF of Poisson(cells×rate) — normal beyond λ=256 — evaluated
// on the crossbar's own splitmix uniform, so the verdict for a given
// id never depends on which ids were queried before it.
func (m *Model) StuckCells(id int64, cells int) int {
	if m.EffectiveRate() == 0 || cells <= 0 {
		return 0
	}
	return m.stuckCells(m.law(cells), id, cells)
}

// stuckCells is StuckCells with crossbar's Poisson law in hand.
func (m *Model) stuckCells(p *poisson, id int64, cells int) int {
	return min(p.inv(uniform(m.cfg.Seed, id)), cells)
}

// law returns the stuck-cell law of crossbars with the given cell
// count, Poisson(cells×rate), built once per model and cell count.
func (m *Model) law(cells int) *poisson {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.laws[cells]
	if !ok {
		p = newPoisson(float64(cells) * m.rate)
		m.laws[cells] = p
	}
	return p
}

// CrossbarRetired reports whether crossbar id's stuck-cell density
// exceeds the retirement threshold.
func (m *Model) CrossbarRetired(id int64, cells int) bool {
	if !m.Enabled() || cells <= 0 {
		return false
	}
	return m.retiredWith(m.law(cells), id, cells)
}

// retiredWith is CrossbarRetired with the crossbar's law in hand.
func (m *Model) retiredWith(p *poisson, id int64, cells int) bool {
	return float64(m.stuckCells(p, id, cells)) > m.cfg.RetireThreshold*float64(cells)
}

// RetiredFraction estimates the fraction of crossbars the retirement
// threshold excludes, from a fixed sample of retireSample crossbar
// streams. Cached per cell count.
func (m *Model) RetiredFraction(cells int) float64 {
	if !m.Enabled() || cells <= 0 {
		return 0
	}
	p := m.law(cells)
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.retired[cells]; ok {
		return f
	}
	hit := 0
	for i := 0; i < retireSample; i++ {
		if m.retiredWith(p, int64(i), cells) {
			hit++
		}
	}
	f := float64(hit) / retireSample
	m.retired[cells] = f
	return f
}

// Retired scales the sampled retirement fraction to a chip: how many
// of total crossbars of the given cell count leave the free pool.
func (m *Model) Retired(total, cells int) int {
	if !m.Enabled() || total <= 0 {
		return 0
	}
	return int(math.Round(m.RetiredFraction(cells) * float64(total)))
}

// DeadGroups returns per-crossbar-group dead flags for a mapping that
// needs `needed` healthy groups: flag g is crossbar g's retirement
// verdict. The slice is extended until it contains `needed` healthy
// entries (capped at 4×needed + retireSample so a pathological
// threshold still terminates; callers treat indices beyond the slice
// as healthy).
func (m *Model) DeadGroups(needed, cells int) []bool {
	if !m.Enabled() || needed <= 0 {
		return nil
	}
	limit := 4*needed + retireSample
	dead := make([]bool, 0, needed)
	healthy := 0
	p := m.law(cells)
	for id := 0; healthy < needed && id < limit; id++ {
		d := m.retiredWith(p, int64(id), cells)
		dead = append(dead, d)
		if !d {
			healthy++
		}
	}
	return dead
}

// ExpectedStuckCells is the expected stuck-cell count over an array
// region (counter fodder for accel.faulty_cells).
func (m *Model) ExpectedStuckCells(crossbars, cells int) int64 {
	if !m.Enabled() {
		return 0
	}
	return int64(math.Round(m.EffectiveRate() * float64(crossbars) * float64(cells)))
}

// WearStuckFraction is the analytic wear-out model: the fraction of
// cells stuck after `writes` program cycles, a lognormal lifetime CDF
// centred on endurance.ReRAMWriteLimit with shape σ = 0.5 (cell
// endurance spreads roughly half a decade). ≈0 well below the limit,
// exactly 0.5 at it, →1 beyond — deterministic, no RNG.
func WearStuckFraction(writes float64) float64 {
	if writes <= 0 {
		return 0
	}
	const sigma = 0.5
	z := (math.Log(writes) - math.Log(endurance.ReRAMWriteLimit)) / sigma
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Mask records which elements of one written matrix land on stuck
// cell slices, and how each is pinned. Masks are generated from
// per-row streams keyed by (Seed, tag, row), so they are identical at
// any worker count and stable across epochs — stuck cells do not move.
type Mask struct {
	Rows, Cols int
	// Slice[r*Cols+c] is the stuck cell-slice index for the element, or
	// -1 for a healthy element.
	Slice []int8
	// High[r*Cols+c] pins the slice to full-scale (stuck-at-1) rather
	// than zero.
	High []bool
	// Stuck counts affected elements.
	Stuck int
}

// StuckMask draws the stuck map for one rows×cols matrix written at
// cellsPerValue cells per element. tag names the matrix (for example
// "w0" or "f1") so distinct matrices get independent streams.
func (m *Model) StuckMask(tag string, rows, cols, cellsPerValue int) *Mask {
	if !m.Enabled() || rows <= 0 || cols <= 0 || cellsPerValue <= 0 {
		return nil
	}
	rate := m.EffectiveRate()
	// An element is hit when any of its cells is stuck.
	pElem := 1 - math.Pow(1-rate, float64(cellsPerValue))
	msk := &Mask{
		Rows:  rows,
		Cols:  cols,
		Slice: make([]int8, rows*cols),
		High:  make([]bool, rows*cols),
	}
	th := tagHash(tag)
	for r := 0; r < rows; r++ {
		rng := rand.New(rand.NewSource(streamSeed(m.cfg.Seed, th, int64(r))))
		base := r * cols
		for c := 0; c < cols; c++ {
			if rng.Float64() >= pElem {
				msk.Slice[base+c] = -1
				continue
			}
			msk.Slice[base+c] = int8(rng.Intn(cellsPerValue))
			msk.High[base+c] = rng.Float64() < 0.5
			msk.Stuck++
		}
	}
	if msk.Stuck == 0 {
		return nil
	}
	return msk
}

// tagHash folds a matrix tag into the stream key (FNV-1a).
func tagHash(tag string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	return int64(h)
}

// streamSeed derives the seed of stream (base, key, i) with a
// splitmix64-style mix — the predictor.unitSeed pattern. The stream
// depends only on its stable identity, never on worker count or
// query order.
func streamSeed(base, key, i int64) int64 {
	z := uint64(base) ^ uint64(key)*0x9e3779b97f4a7c15
	z += 0x9e3779b97f4a7c15 * uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// uniform maps stream (seed, id) to one double in [0, 1).
func uniform(seed, id int64) float64 {
	z := uint64(streamSeed(seed, 0x5fa7, id))
	return float64(z>>11) / float64(1<<53)
}

// poissonCap bounds the CDF accumulation: a u the accumulated sum never
// exceeds (it saturates below 1 in floating point) yields this count.
const poissonCap = 1 << 20

// poisson is the inverse CDF of Poisson(λ), by direct CDF accumulation
// for small λ and a normal approximation beyond λ=256 (exact
// accumulation underflows and slows there; the verdicts only feed
// density thresholds, so tail shape matters more than exactness).
//
// The per-λ work is done once: cdf holds the accumulation's running
// sums in its order, cdf[k] = Σ_{i≤k} p_i with p_0 = e^−λ and
// p_k = p_{k−1}·(λ/k), up to the term that underflows to zero (after
// it the sum never moves) or the cap. The normal branch keeps √λ.
type poisson struct {
	lambda, sqrtLambda float64
	cdf                []float64
}

func newPoisson(lambda float64) *poisson {
	p := &poisson{lambda: lambda}
	switch {
	case lambda <= 0:
	case lambda > 256:
		p.sqrtLambda = math.Sqrt(lambda)
	default:
		term := math.Exp(-lambda)
		sum := term
		p.cdf = append(p.cdf, sum)
		for n := 1; term != 0 && n < poissonCap; n++ {
			term *= lambda / float64(n)
			sum += term
			p.cdf = append(p.cdf, sum)
		}
	}
	return p
}

// inv returns the smallest n with u < cdf[n] (poissonCap if u is at or
// above every partial sum), or the rounded normal quantile beyond
// λ=256.
func (p *poisson) inv(u float64) int {
	if p.lambda <= 0 {
		return 0
	}
	if p.lambda > 256 {
		z := math.Sqrt2 * math.Erfinv(2*u-1)
		return max(0, int(math.Round(p.lambda+p.sqrtLambda*z)))
	}
	n := sort.Search(len(p.cdf), func(k int) bool { return u < p.cdf[k] })
	if n == len(p.cdf) {
		return poissonCap
	}
	return n
}

// defaultModel is the process-wide model the CLI installs; nil means
// disabled. accel and gcn consult it when no explicit model is given,
// mirroring parallel.SetWorkers.
var defaultModel atomic.Pointer[Model]

// SetDefault installs the process-wide model (nil disables).
func SetDefault(m *Model) {
	defaultModel.Store(m)
}

// Default returns the process-wide model, possibly nil.
func Default() *Model {
	return defaultModel.Load()
}

// Flag-fallback metrics, Wall-side like parallel.env_workers_invalid:
// whether a flag was mis-typed is a property of the invocation, not
// the simulated workload.
var mFlagsInvalid = obs.NewCounter("fault.flags_invalid", obs.Wall,
	"invalid -fault-* flag values replaced by safe defaults")

// FromFlags validates the CLI's -fault-* values before any experiment
// runs, routing invalid ones through the obs warn path + counter and
// falling back to safe defaults — the GOPIM_WORKERS pattern: a typo
// degrades the run, it never kills it. Returns nil when the (possibly
// corrected) rate disables injection.
func FromFlags(rate float64, seed int64, verifyMax int) *Model {
	if math.IsNaN(rate) || rate < 0 || rate > 1 {
		mFlagsInvalid.Inc()
		obs.Warnf("fault", "ignoring invalid -fault-rate %v (want a probability in [0,1]); faults disabled", rate)
		rate = 0
	}
	if verifyMax <= 0 {
		mFlagsInvalid.Inc()
		obs.Warnf("fault", "ignoring invalid -fault-verify-max %d (want a positive retry budget); using %d", verifyMax, DefaultVerifyMax)
		verifyMax = DefaultVerifyMax
	}
	if rate == 0 {
		return nil
	}
	return MustNew(Config{Rate: rate, Seed: seed, VerifyMax: verifyMax})
}
