package fault

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"gopim/internal/endurance"
	"gopim/internal/obs"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Rate: -0.1},
		{Rate: 1.5},
		{Rate: math.NaN()},
		{Rate: 0.1, VerifyMax: -1},
		{Rate: 0.1, RetireThreshold: 2},
		{Rate: 0.1, RetireThreshold: math.NaN()},
		{Rate: 0.1, WearWritesPerCell: math.Inf(1)},
		{Rate: 0.1, WearWritesPerCell: -1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
	if _, err := New(Config{Rate: 0.01, Seed: 3}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestNilAndZeroRateDisabled(t *testing.T) {
	var nilModel *Model
	if nilModel.Enabled() {
		t.Fatal("nil model must be disabled")
	}
	m := MustNew(Config{Rate: 0, Seed: 1})
	if m.Enabled() {
		t.Fatal("rate-0 model must be disabled")
	}
	if got := m.RetryFactor(64); got != 1 {
		t.Fatalf("disabled RetryFactor = %v, want exactly 1", got)
	}
	if nilModel.RetryFactor(64) != 1 || nilModel.Retired(100, 4096) != 0 ||
		nilModel.StuckMask("w0", 4, 4, 8) != nil || nilModel.DeadGroups(8, 4096) != nil {
		t.Fatal("nil model must be a no-op everywhere")
	}
}

func TestRetryFactorShape(t *testing.T) {
	m := MustNew(Config{Rate: 1e-3, Seed: 1})
	f := m.RetryFactor(64)
	if f <= 1 || f > float64(DefaultVerifyMax) {
		t.Fatalf("RetryFactor(64) = %v, want in (1, %d]", f, DefaultVerifyMax)
	}
	// Monotone in rate and saturating at the verify budget.
	hi := MustNew(Config{Rate: 0.5, Seed: 1}).RetryFactor(64)
	if hi <= f {
		t.Fatalf("retry factor not monotone in rate: %v vs %v", hi, f)
	}
	sat := MustNew(Config{Rate: 1, Seed: 1}).RetryFactor(64)
	if sat != float64(DefaultVerifyMax) {
		t.Fatalf("rate-1 retry factor = %v, want the verify budget %d", sat, DefaultVerifyMax)
	}
}

// Fault maps are pure functions of (Seed, stable index): querying the
// same ids from many goroutines in scrambled order yields the single-
// threaded answer.
func TestCrossbarVerdictsDeterministic(t *testing.T) {
	m := MustNew(Config{Rate: 5e-3, Seed: 42})
	const cells = 4096
	want := make([]int, 512)
	for i := range want {
		want[i] = m.StuckCells(int64(i), cells)
	}
	m2 := MustNew(Config{Rate: 5e-3, Seed: 42})
	var wg sync.WaitGroup
	got := make([]int, len(want))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := len(want) - 1 - w; i >= 0; i -= 8 {
				got[i] = m2.StuckCells(int64(i), cells)
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("crossbar %d: concurrent verdict %d != serial %d", i, got[i], want[i])
		}
	}
}

func TestStuckCellsDistribution(t *testing.T) {
	m := MustNew(Config{Rate: 1e-3, Seed: 7})
	const cells = 4096
	lambda := 1e-3 * cells
	var sum float64
	for i := 0; i < 2000; i++ {
		sum += float64(m.StuckCells(int64(i), cells))
	}
	mean := sum / 2000
	if mean < lambda*0.8 || mean > lambda*1.2 {
		t.Fatalf("mean stuck cells %v far from λ=%v", mean, lambda)
	}
}

func TestRetiredFractionScalesWithThreshold(t *testing.T) {
	loose := MustNew(Config{Rate: 1e-3, Seed: 9}) // threshold 2×rate
	tight := MustNew(Config{Rate: 1e-3, Seed: 9, RetireThreshold: 1e-3})
	fl, ft := loose.RetiredFraction(4096), tight.RetiredFraction(4096)
	if fl < 0 || fl > 1 || ft < 0 || ft > 1 {
		t.Fatalf("fractions out of range: %v, %v", fl, ft)
	}
	if ft <= fl {
		t.Fatalf("tighter threshold must retire more: %v (tight) vs %v (loose)", ft, fl)
	}
	if got := loose.Retired(1000, 4096); got != int(math.Round(fl*1000)) {
		t.Fatalf("Retired(1000) = %d, want %d", got, int(math.Round(fl*1000)))
	}
}

func TestDeadGroupsSuppliesHealthy(t *testing.T) {
	m := MustNew(Config{Rate: 0.02, Seed: 5, RetireThreshold: 0.02})
	dead := m.DeadGroups(100, 4096)
	healthy := 0
	for _, d := range dead {
		if !d {
			healthy++
		}
	}
	if healthy < 100 {
		t.Fatalf("DeadGroups returned only %d healthy of %d flags", healthy, len(dead))
	}
	// And it terminates even when everything is dead.
	all := MustNew(Config{Rate: 1, Seed: 5, RetireThreshold: 1e-9})
	if got := all.DeadGroups(10, 4096); len(got) > 4*10+retireSample {
		t.Fatalf("pathological DeadGroups did not cap: %d flags", len(got))
	}
}

func TestWearStuckFraction(t *testing.T) {
	if f := WearStuckFraction(0); f != 0 {
		t.Fatalf("no writes, wear %v", f)
	}
	if f := WearStuckFraction(endurance.ReRAMWriteLimit / 100); f > 0.01 {
		t.Fatalf("1%% of the write budget already wears %v of cells", f)
	}
	if f := WearStuckFraction(endurance.ReRAMWriteLimit); math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("at the write limit wear = %v, want 0.5", f)
	}
	if f := WearStuckFraction(endurance.ReRAMWriteLimit * 100); f < 0.99 {
		t.Fatalf("100× the write budget wears only %v", f)
	}
	// Wear feeds the effective rate.
	worn := MustNew(Config{Rate: 0, Seed: 1, WearWritesPerCell: endurance.ReRAMWriteLimit})
	if !worn.Enabled() || math.Abs(worn.EffectiveRate()-0.5) > 1e-12 {
		t.Fatalf("worn-out model effective rate %v, want 0.5", worn.EffectiveRate())
	}
}

// EffectiveRate is fixed when the model is built; it must equal the
// closed form 1 − (1−Rate)·(1−wear) evaluated on the spot, bit for bit.
func TestEffectiveRateMatchesClosedForm(t *testing.T) {
	closedForm := func(c Config) float64 {
		r := c.Rate
		if c.WearWritesPerCell > 0 {
			r = 1 - (1-r)*(1-WearStuckFraction(c.WearWritesPerCell))
		}
		return r
	}
	var nilModel *Model
	if got := nilModel.EffectiveRate(); got != 0 {
		t.Errorf("nil model effective rate %v, want 0", got)
	}
	var zero Model
	if got := zero.EffectiveRate(); got != 0 {
		t.Errorf("zero-value model effective rate %v, want 0", got)
	}
	limit := endurance.ReRAMWriteLimit
	for _, cfg := range []Config{
		{},
		{Rate: 1e-3},
		{Rate: 1},
		{WearWritesPerCell: limit / 3},
		{WearWritesPerCell: limit * 2},
		{Rate: 0.01, WearWritesPerCell: limit / 7},
		{Rate: 0.2, WearWritesPerCell: limit},
	} {
		got, want := MustNew(cfg).EffectiveRate(), closedForm(cfg)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%+v: effective rate %v, closed form %v", cfg, got, want)
		}
	}
}

func TestStuckMaskDeterministicAndStable(t *testing.T) {
	m := MustNew(Config{Rate: 0.01, Seed: 11})
	a := m.StuckMask("w0", 50, 40, 8)
	b := MustNew(Config{Rate: 0.01, Seed: 11}).StuckMask("w0", 50, 40, 8)
	if a == nil || b == nil {
		t.Fatal("expected stuck elements at rate 0.01 over 2000 elements")
	}
	if a.Stuck != b.Stuck || !bytes.Equal(boolBytes(a.High), boolBytes(b.High)) {
		t.Fatal("same (seed, tag, shape) must give identical masks")
	}
	for i := range a.Slice {
		if a.Slice[i] != b.Slice[i] {
			t.Fatalf("slice index %d differs", i)
		}
	}
	other := m.StuckMask("w1", 50, 40, 8)
	if other != nil && other.Stuck == a.Stuck {
		same := true
		for i := range a.Slice {
			if a.Slice[i] != other.Slice[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different tags produced identical masks")
		}
	}
	// Expected hit fraction ≈ 1 − (1−rate)^cells.
	p := 1 - math.Pow(1-0.01, 8)
	frac := float64(a.Stuck) / float64(50*40)
	if frac < p/2 || frac > p*2 {
		t.Fatalf("stuck fraction %v far from expectation %v", frac, p)
	}
}

func boolBytes(bs []bool) []byte {
	out := make([]byte, len(bs))
	for i, b := range bs {
		if b {
			out[i] = 1
		}
	}
	return out
}

func TestFromFlagsFallbacks(t *testing.T) {
	restore := obs.SetWarnOutput(&bytes.Buffer{})
	defer restore()
	if m := FromFlags(0, 1, 8); m != nil {
		t.Fatal("rate 0 must return a nil (disabled) model")
	}
	if m := FromFlags(-0.5, 1, 8); m != nil {
		t.Fatal("negative rate must fall back to disabled")
	}
	if m := FromFlags(1.5, 1, 8); m != nil {
		t.Fatal("rate > 1 must fall back to disabled")
	}
	if m := FromFlags(math.NaN(), 1, 8); m != nil {
		t.Fatal("NaN rate must fall back to disabled")
	}
	m := FromFlags(0.01, 3, 0) // zero verify budget → default
	if m == nil || m.Config().VerifyMax != DefaultVerifyMax {
		t.Fatalf("zero verify budget must fall back to %d, got %+v", DefaultVerifyMax, m.Config())
	}
	if m.Config().Rate != 0.01 || m.Config().Seed != 3 {
		t.Fatalf("valid fields must survive the fallback: %+v", m.Config())
	}
}

func TestSetDefault(t *testing.T) {
	defer SetDefault(nil)
	if Default() != nil {
		t.Fatal("default model must start nil")
	}
	m := MustNew(Config{Rate: 0.01, Seed: 1})
	SetDefault(m)
	if Default() != m {
		t.Fatal("SetDefault did not install the model")
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) must disable")
	}
}
