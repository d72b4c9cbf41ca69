package obs

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"
)

// ExperimentRecord is one experiment's entry in a run manifest.
type ExperimentRecord struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
	Err    string  `json:"error,omitempty"`
}

// Manifest captures everything needed to reproduce one CLI run: the
// exact invocation, the knobs that influence output bytes (seed,
// workers, format, fast), the toolchain, and per-experiment wall
// durations. It is written alongside experiment output so a
// regenerated experiments_full_output.txt always names its provenance.
type Manifest struct {
	Tool        string   `json:"tool"`
	Args        []string `json:"args"`
	Seed        int64    `json:"seed"`
	Workers     int      `json:"workers"`
	Format      string   `json:"format"`
	Fast        bool     `json:"fast"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	GitDescribe string   `json:"git_describe,omitempty"`
	// Fault-injection knobs (-fault-rate/-fault-seed/-fault-verify-max),
	// recorded only when a fault model is active: a default run's
	// manifest must stay byte-stable across the fault feature's
	// introduction, so all three omit when empty.
	FaultRate      float64 `json:"fault_rate,omitempty"`
	FaultSeed      int64   `json:"fault_seed,omitempty"`
	FaultVerifyMax int     `json:"fault_verify_max,omitempty"`
	// Critical-path headline figures (`gopim explain`), recorded only
	// when an explain analysis ran this invocation — same omitempty
	// byte-stability contract as the fault keys.
	ExplainBottleneck string  `json:"explain_bottleneck,omitempty"`
	ExplainCritShare  float64 `json:"explain_crit_share,omitempty"`
	ExplainEq6GapFrac float64 `json:"explain_eq6_gap_frac,omitempty"`
	// SimMemo records the -sim-memo knob only when the memo layer was
	// disabled — the same omitempty byte-stability contract as the
	// fault keys above.
	SimMemo string `json:"sim_memo,omitempty"`
	// Streaming-churn knobs (-churn-rate/-churn-seed/-refresh-policy),
	// recorded only when churn is enabled — same omitempty byte-stability
	// contract as the fault keys.
	ChurnRate     float64   `json:"churn_rate,omitempty"`
	ChurnSeed     int64     `json:"churn_seed,omitempty"`
	RefreshPolicy string    `json:"refresh_policy,omitempty"`
	StartedAt     time.Time `json:"started_at"`
	WallMS        float64   `json:"wall_ms"`
	// HeapAllocBytes and GCCount snapshot runtime.MemStats when Finish
	// runs: live heap bytes and cumulative GC cycles for the process.
	// Wall-side provenance, like WallMS — never part of Sim diffs.
	HeapAllocBytes uint64             `json:"heap_alloc_bytes"`
	GCCount        uint32             `json:"gc_count"`
	Experiments    []ExperimentRecord `json:"experiments,omitempty"`

	start time.Time
	mu    sync.Mutex
}

// NewManifest starts a manifest for the given command-line arguments,
// filling in toolchain and git provenance.
func NewManifest(args []string) *Manifest {
	now := time.Now()
	return &Manifest{
		Tool:        "gopim",
		Args:        append([]string(nil), args...),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GitDescribe: gitDescribe(),
		StartedAt:   now.UTC(),
		start:       now,
	}
}

// Record appends one experiment outcome. Safe for concurrent use: the
// experiment fan-out reports completions from worker goroutines.
func (m *Manifest) Record(id string, wall time.Duration, err error) {
	rec := ExperimentRecord{ID: id, WallMS: float64(wall) / 1e6}
	if err != nil {
		rec.Err = err.Error()
	}
	m.mu.Lock()
	m.Experiments = append(m.Experiments, rec)
	m.mu.Unlock()
}

// Finish stamps the total wall time and samples the runtime's memory
// statistics (heap in use, GC cycles) for the provenance record.
func (m *Manifest) Finish() {
	m.WallMS = float64(time.Since(m.start)) / 1e6
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.HeapAllocBytes = ms.HeapAlloc
	m.GCCount = ms.NumGC
}

// WriteFile writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitDescribe returns `git describe --tags --always --dirty` for the
// working directory, or "" when git or a repository is unavailable.
// Best-effort provenance only — never an error.
func gitDescribe() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "describe", "--tags", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
