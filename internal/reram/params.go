// Package reram models the GoPIM chip's microarchitecture: crossbar /
// PE / tile / chip geometry, read-write latencies, matrix-to-crossbar
// footprint arithmetic, and the per-component power figures of paper
// Table II that the energy model consumes.
//
// All quantities are analytic: the package answers "how many crossbars
// does this matrix occupy", "how long does one MVM input take", and
// "what does a write op cost", which is exactly the granularity the
// paper's (NeuroSim-derived) simulator feeds its pipeline model.
//
// Latencies are expressed as float64 nanoseconds: the paper's read
// latency (29.31 ns) is finer than time.Duration's integer-nanosecond
// grain.
package reram

import (
	"fmt"
	"math"
)

// Chip collects the microarchitectural parameters of a GoPIM chip.
// DefaultChip mirrors paper Table II; tests and benches shrink it.
type Chip struct {
	// Geometry.
	CrossbarRows   int // wordlines per crossbar (64)
	CrossbarCols   int // bitlines per crossbar (64)
	BitsPerCell    int // 2
	CrossbarsPerPE int // 32
	PEsPerTile     int // 8
	Tiles          int // 65536

	// Precision.
	WeightBits int // 16-bit fixed point values
	DACBits    int // DAC resolution (2) — input bits fed per cycle
	ADCBits    int // ADC resolution (8)

	// Latency in nanoseconds.
	ReadLatencyNS  float64 // one crossbar MVM read cycle (29.31 ns)
	WriteLatencyNS float64 // one write op (50.88 ns)

	// WriteDriverCells is how many cells one write op programs; writes
	// inside a PE share drivers and are serialised (§III-A: "ReRAM
	// writing operations within the same crossbar are serial").
	WriteDriverCells int
	// WriteVerifyCycles is the number of program-verify iterations per
	// row: multi-level ReRAM cells need iterative programming, putting
	// effective row-program latency in the microsecond range.
	WriteVerifyCycles int
	// WriteLanes is how many rows the chip can program concurrently —
	// write pulses are power-hungry, so the power budget, not the
	// drivers, bounds chip-wide write parallelism.
	WriteLanes int
	// WriteRetryFactor stretches row programming for write-verify
	// retries under injected faults (internal/fault): the expected
	// program-verify iteration count relative to the fault-free pass.
	// 0 or 1 means no retries; values in (1, ∞) multiply ProgramRowNS,
	// which prices both the latency and (through energy.WriteRowPJ)
	// the energy of every retry.
	WriteRetryFactor float64

	// ZeroSkipMiss models imperfect zero-block skipping while streaming
	// a sparse adjacency row through the input registers: the effective
	// number of processed 64-blocks is active + miss·(total − active).
	// 0 = perfect skipping, 1 = fully dense processing.
	ZeroSkipMiss float64

	Power PowerParams
}

// PowerParams carries the Table II power figures (milliwatts) used by
// the energy model. Values are per instance of the component.
type PowerParams struct {
	ADCmW        float64 // per PE's ADC block
	SHmW         float64 // sample & hold, per PE aggregate
	CrossbarmW   float64 // one active crossbar
	InRegmW      float64 // PE input register
	OutRegmW     float64 // PE output register
	ShiftAddmW   float64 // S+A units per PE aggregate
	TileInBufmW  float64
	TileXbBufmW  float64
	TileOutBufmW float64
	TileNFUmW    float64
	TilePFUmW    float64
	WeightMgrmW  float64 // chip-level SRAM weight computer
	ActivationmW float64
	ControllermW float64
}

// DefaultChip returns the paper Table II configuration: 65 536 tiles ×
// 8 PEs × 32 crossbars of 64×64 2-bit cells (a 16 GB ReRAM array),
// 29.31 ns reads and 50.88 ns writes.
func DefaultChip() Chip {
	return Chip{
		CrossbarRows:      64,
		CrossbarCols:      64,
		BitsPerCell:       2,
		CrossbarsPerPE:    32,
		PEsPerTile:        8,
		Tiles:             65536,
		WeightBits:        16,
		DACBits:           2,
		ADCBits:           8,
		ReadLatencyNS:     29.31,
		WriteLatencyNS:    50.88,
		WriteDriverCells:  4,
		WriteVerifyCycles: 8,
		WriteLanes:        2,
		ZeroSkipMiss:      0.20,
		Power: PowerParams{
			ADCmW:        64,
			SHmW:         0.02 * 64 * 32, // 0.02 mW × 32×64 instances
			CrossbarmW:   6.2,
			InRegmW:      2.32,
			OutRegmW:     0.42,
			ShiftAddmW:   0.8 * 16,
			TileInBufmW:  7.95,
			TileXbBufmW:  59.42,
			TileOutBufmW: 1.28,
			TileNFUmW:    2.04,
			TilePFUmW:    3.2,
			WeightMgrmW:  99.6,
			ActivationmW: 0.0266,
			ControllermW: 580.41,
		},
	}
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Chip) Validate() error {
	switch {
	case c.CrossbarRows <= 0 || c.CrossbarCols <= 0:
		return fmt.Errorf("reram: crossbar %dx%d must be positive", c.CrossbarRows, c.CrossbarCols)
	case c.BitsPerCell <= 0:
		return fmt.Errorf("reram: bits per cell %d must be positive", c.BitsPerCell)
	case c.CrossbarsPerPE <= 0 || c.PEsPerTile <= 0 || c.Tiles <= 0:
		return fmt.Errorf("reram: geometry %d/%d/%d must be positive", c.CrossbarsPerPE, c.PEsPerTile, c.Tiles)
	case c.WeightBits <= 0 || c.DACBits <= 0:
		return fmt.Errorf("reram: precision bits %d/%d must be positive", c.WeightBits, c.DACBits)
	case c.ReadLatencyNS <= 0 || c.WriteLatencyNS <= 0:
		return fmt.Errorf("reram: latencies must be positive")
	case c.WriteDriverCells <= 0:
		return fmt.Errorf("reram: write driver cells %d must be positive", c.WriteDriverCells)
	case c.WriteVerifyCycles <= 0:
		return fmt.Errorf("reram: write verify cycles %d must be positive", c.WriteVerifyCycles)
	case c.WriteLanes <= 0:
		return fmt.Errorf("reram: write lanes %d must be positive", c.WriteLanes)
	case c.WriteRetryFactor != 0 && (math.IsNaN(c.WriteRetryFactor) ||
		math.IsInf(c.WriteRetryFactor, 0) || c.WriteRetryFactor < 1):
		return fmt.Errorf("reram: write retry factor %v must be 0 (off) or a finite value ≥ 1", c.WriteRetryFactor)
	case c.ZeroSkipMiss < 0 || c.ZeroSkipMiss > 1:
		return fmt.Errorf("reram: zero-skip miss %v must be in [0,1]", c.ZeroSkipMiss)
	}
	return nil
}

// CellsPerCrossbar returns rows×cols of one crossbar.
func (c Chip) CellsPerCrossbar() int { return c.CrossbarRows * c.CrossbarCols }

// TotalCrossbars returns the chip-wide crossbar count
// (Table II: 65 536 × 8 × 32 = 16 777 216).
func (c Chip) TotalCrossbars() int { return c.Tiles * c.PEsPerTile * c.CrossbarsPerPE }

// CrossbarsForMatrix returns the number of crossbars a rows×cols value
// matrix occupies: one cell pair per value (differential encoding of
// signed values), tiled over 64×64 crossbars. Reproduces paper Table
// VI: ddi's 256×256 weights → 32 crossbars; its 4267×256 feature
// matrix → 534 crossbars.
func (c Chip) CrossbarsForMatrix(rows, cols int) int {
	if rows <= 0 || cols <= 0 {
		return 0
	}
	cells := int64(rows) * int64(cols)
	per := int64(c.CellsPerCrossbar())
	return int(2 * ((cells + per - 1) / per))
}

// InputCyclesPerMVM is the number of read cycles one full-precision
// input vector needs: weightBits / dacBits (16/2 = 8).
func (c Chip) InputCyclesPerMVM() int {
	cyc := c.WeightBits / c.DACBits
	if cyc < 1 {
		cyc = 1
	}
	return cyc
}

// RowsPerPE returns how many crossbar rows one PE holds
// (crossbarsPerPE × crossbarRows).
func (c Chip) RowsPerPE() int { return c.CrossbarsPerPE * c.CrossbarRows }

// WriteOpsPerRow is the number of serialised write operations needed to
// program one crossbar row (cols / driver width).
func (c Chip) WriteOpsPerRow() int {
	ops := (c.CrossbarCols + c.WriteDriverCells - 1) / c.WriteDriverCells
	if ops < 1 {
		ops = 1
	}
	return ops
}

// RowWriteNS is the latency in nanoseconds of programming one crossbar
// row.
func (c Chip) RowWriteNS() float64 {
	return float64(c.WriteOpsPerRow()) * c.WriteLatencyNS
}

// ProgramRowNS is the full program-verify latency of one crossbar row:
// WriteOpsPerRow × WriteVerifyCycles write pulses, stretched by the
// write-verify retry factor when fault injection is active. The
// multiplication is gated on > 1 so the fault-free path stays
// byte-identical (×1.0 would be a bitwise identity anyway, but the
// gate keeps the contract structural).
func (c Chip) ProgramRowNS() float64 {
	ns := c.RowWriteNS() * float64(c.WriteVerifyCycles)
	if c.WriteRetryFactor > 1 {
		ns *= c.WriteRetryFactor
	}
	return ns
}

// MVMNS is the latency in nanoseconds of streaming one full-precision
// input vector through a mapped matrix (all its crossbars operate in
// parallel).
func (c Chip) MVMNS() float64 {
	return float64(c.InputCyclesPerMVM()) * c.ReadLatencyNS
}

// BlocksForVertices returns how many input blocks of CrossbarRows
// vertices an n-vertex adjacency row spans.
func (c Chip) BlocksForVertices(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + c.CrossbarRows - 1) / c.CrossbarRows
}

// EffectiveBlocks applies the zero-skip model: given that `active` of
// `total` blocks contain at least one neighbour, it returns the number
// of blocks the hardware actually streams.
func (c Chip) EffectiveBlocks(active, total float64) float64 {
	if active > total {
		active = total
	}
	if active < 0 {
		active = 0
	}
	return active + c.ZeroSkipMiss*(total-active)
}

// ExpectedActiveBlocks estimates how many distinct blocks of
// CrossbarRows vertices the deg neighbours of a vertex touch when
// neighbour ids are spread uniformly: B·(1 − (1 − 1/B)^deg). It is the
// one-call reference form; loops over a graph's vertices use
// Occupancy(n).Expected, which gives the same bits.
func (c Chip) ExpectedActiveBlocks(deg float64, n int) float64 {
	b := float64(c.BlocksForVertices(n))
	if b == 0 || deg <= 0 {
		return 0
	}
	return b * (1 - math.Exp(deg*math.Log1p(-1/b)))
}

// BlockOccupancy is ExpectedActiveBlocks for one graph size with the
// per-size work done once: the block count B and log(1 − 1/B).
type BlockOccupancy struct {
	blocks, logMiss float64
}

// Occupancy prepares ExpectedActiveBlocks for n-vertex adjacency rows.
func (c Chip) Occupancy(n int) BlockOccupancy {
	b := float64(c.BlocksForVertices(n))
	if b == 0 {
		return BlockOccupancy{}
	}
	return BlockOccupancy{blocks: b, logMiss: math.Log1p(-1 / b)}
}

// Expected is ExpectedActiveBlocks(deg, n) for the occupancy's n, bit
// for bit.
func (o BlockOccupancy) Expected(deg float64) float64 {
	if o.blocks == 0 || deg <= 0 {
		return 0
	}
	return o.blocks * (1 - math.Exp(deg*o.logMiss))
}
