// Package energy converts a simulated schedule (per-stage operation
// counts plus makespan) into component-level energy, using the power
// figures of paper Table II. All energies are picojoules
// (1 mW × 1 ns = 1 pJ).
package energy

import (
	"fmt"

	"gopim/internal/reram"
	"gopim/internal/stage"
)

// WriteEnergyFactor scales a crossbar's read power to its write power.
// ReRAM SET/RESET pulses draw several times the read current; 4× is
// the conventional modelling choice for the Table II cell.
const WriteEnergyFactor = 4.0

// Breakdown is an energy account in picojoules.
type Breakdown struct {
	ReadPJ   float64 // crossbar MVM activations incl. ADC/DAC periphery
	WritePJ  float64 // ReRAM row programming
	SRAMPJ   float64 // weight-manager MACs
	StaticPJ float64 // controller, buffers, activation module × makespan
}

// TotalPJ sums all components.
func (b Breakdown) TotalPJ() float64 {
	return b.ReadPJ + b.WritePJ + b.SRAMPJ + b.StaticPJ
}

// ReadOpPJ is the energy of one crossbar read activation: the crossbar
// itself plus its per-crossbar share of the PE periphery (ADC, S&H,
// shift-and-add, registers) for one read cycle.
func ReadOpPJ(c reram.Chip) float64 {
	per := c.Power.ADCmW + c.Power.SHmW + c.Power.ShiftAddmW + c.Power.InRegmW + c.Power.OutRegmW
	mw := c.Power.CrossbarmW + per/float64(c.CrossbarsPerPE)
	return mw * c.ReadLatencyNS
}

// WriteRowPJ is the energy of programming one crossbar row, including
// the write-verify iterations.
func WriteRowPJ(c reram.Chip) float64 {
	return WriteEnergyFactor * c.Power.CrossbarmW * c.ProgramRowNS()
}

// SRAMMACPJ is the energy of one weight-manager multiply-accumulate.
func SRAMMACPJ(c reram.Chip) float64 {
	return c.Power.WeightMgrmW / stage.GCUnit
}

// StaticMW is the always-on power draw for a run that occupies
// crossbarsUsed crossbars: chip-level controller and activation module
// plus the buffers/NFU/PFU of every active tile.
func StaticMW(c reram.Chip, crossbarsUsed int) float64 {
	perTile := c.Power.TileInBufmW + c.Power.TileXbBufmW + c.Power.TileOutBufmW +
		c.Power.TileNFUmW + c.Power.TilePFUmW
	xbPerTile := c.PEsPerTile * c.CrossbarsPerPE
	tiles := (crossbarsUsed + xbPerTile - 1) / xbPerTile
	if tiles > c.Tiles {
		tiles = c.Tiles
	}
	return c.Power.ControllermW + c.Power.ActivationmW + float64(tiles)*perTile
}

// Compute accounts a full run: per-stage op counts × micro-batches for
// the dynamic part, static power × makespan for the rest.
// crossbarsUsed includes replicas.
func Compute(c reram.Chip, stages []stage.Stage, microBatches int, makespanNS float64, crossbarsUsed int) Breakdown {
	if microBatches < 1 {
		panic(fmt.Sprintf("energy: micro-batches %d must be ≥ 1", microBatches))
	}
	if makespanNS < 0 {
		panic(fmt.Sprintf("energy: negative makespan %v", makespanNS))
	}
	var b Breakdown
	mb := float64(microBatches)
	for _, s := range stages {
		b.ReadPJ += s.ReadOps * mb * ReadOpPJ(c)
		b.WritePJ += s.WriteRows * mb * WriteRowPJ(c)
		b.SRAMPJ += s.SRAMMACs * mb * SRAMMACPJ(c)
	}
	b.StaticPJ = StaticMW(c, crossbarsUsed) * makespanNS
	return b
}

// TileMW returns the static power of the tiles spanned by xb crossbars.
func TileMW(c reram.Chip, xb int) float64 {
	if xb <= 0 {
		return 0
	}
	perTile := c.Power.TileInBufmW + c.Power.TileXbBufmW + c.Power.TileOutBufmW +
		c.Power.TileNFUmW + c.Power.TilePFUmW
	xbPerTile := c.PEsPerTile * c.CrossbarsPerPE
	tiles := (xb + xbPerTile - 1) / xbPerTile
	if tiles > c.Tiles {
		tiles = c.Tiles
	}
	return float64(tiles) * perTile
}

// ComputeSchedule accounts a full run with replica power gating: the
// original mapping's tiles (plus chip-level components) are powered
// for the whole makespan, while each stage's replica tiles are powered
// only during that stage's busy time — replicas are gated between
// micro-batches. Dynamic energy is identical to Compute.
func ComputeSchedule(c reram.Chip, stages []stage.Stage, microBatches int,
	makespanNS float64, originalCrossbars int, replicaCrossbars []int, busyNS []float64) Breakdown {

	if len(replicaCrossbars) != len(stages) || len(busyNS) != len(stages) {
		panic(fmt.Sprintf("energy: %d stages, %d replica footprints, %d busy times",
			len(stages), len(replicaCrossbars), len(busyNS)))
	}
	b := Compute(c, stages, microBatches, makespanNS, originalCrossbars)
	for i := range stages {
		b.StaticPJ += TileMW(c, replicaCrossbars[i]) * busyNS[i]
	}
	return b
}
