package energy

import (
	"math"
	"testing"

	"gopim/internal/graphgen"
	"gopim/internal/reram"
	"gopim/internal/stage"
)

func TestPerOpEnergies(t *testing.T) {
	c := reram.DefaultChip()
	// Read op: crossbar 6.2 mW + periphery share, × 29.31 ns.
	per := c.Power.ADCmW + c.Power.SHmW + c.Power.ShiftAddmW + c.Power.InRegmW + c.Power.OutRegmW
	want := (c.Power.CrossbarmW + per/32) * 29.31
	if got := ReadOpPJ(c); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ReadOpPJ = %v, want %v", got, want)
	}
	// Write row: 4 × 6.2 mW × 16 ops × 8 verify cycles × 50.88 ns.
	wantW := 4.0 * 6.2 * 16 * 8 * 50.88
	if got := WriteRowPJ(c); math.Abs(got-wantW) > 1e-6 {
		t.Fatalf("WriteRowPJ = %v, want %v", got, wantW)
	}
	if got := SRAMMACPJ(c); math.Abs(got-99.6/stage.GCUnit) > 1e-12 {
		t.Fatalf("SRAMMACPJ = %v", got)
	}
}

func TestStaticPowerScalesWithTiles(t *testing.T) {
	c := reram.DefaultChip()
	base := StaticMW(c, 0)
	if base < c.Power.ControllermW {
		t.Fatalf("static power %v below controller power", base)
	}
	oneTile := StaticMW(c, 1)
	twoTiles := StaticMW(c, 257) // 256 crossbars per tile → spills into 2
	if oneTile <= base || twoTiles <= oneTile {
		t.Fatalf("static power must grow with tiles: %v %v %v", base, oneTile, twoTiles)
	}
	perTile := c.Power.TileInBufmW + c.Power.TileXbBufmW + c.Power.TileOutBufmW + c.Power.TileNFUmW + c.Power.TilePFUmW
	if math.Abs((twoTiles-oneTile)-perTile) > 1e-9 {
		t.Fatalf("tile increment = %v, want %v", twoTiles-oneTile, perTile)
	}
	// Capped at the chip's tile count.
	if StaticMW(c, 1<<40) != StaticMW(c, c.TotalCrossbars()) {
		t.Fatal("tile count must cap at the chip size")
	}
}

func TestComputeAccounting(t *testing.T) {
	c := reram.DefaultChip()
	stages := []stage.Stage{
		{ReadOps: 10, WriteRows: 2, SRAMMACs: 100},
		{ReadOps: 5},
	}
	b := Compute(c, stages, 4, 1000, 256)
	wantRead := (10 + 5) * 4 * ReadOpPJ(c)
	wantWrite := 2 * 4 * WriteRowPJ(c)
	wantSRAM := 100 * 4 * SRAMMACPJ(c)
	wantStatic := StaticMW(c, 256) * 1000
	if math.Abs(b.ReadPJ-wantRead) > 1e-6 ||
		math.Abs(b.WritePJ-wantWrite) > 1e-6 ||
		math.Abs(b.SRAMPJ-wantSRAM) > 1e-6 ||
		math.Abs(b.StaticPJ-wantStatic) > 1e-6 {
		t.Fatalf("breakdown wrong: %+v", b)
	}
	if math.Abs(b.TotalPJ()-(wantRead+wantWrite+wantSRAM+wantStatic)) > 1e-6 {
		t.Fatal("TotalPJ must sum components")
	}
}

func TestComputeValidation(t *testing.T) {
	c := reram.DefaultChip()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Compute(c, nil, 0, 0, 0)
}

func TestComputeNegativeMakespanPanics(t *testing.T) {
	c := reram.DefaultChip()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Compute(c, nil, 1, -5, 0)
}

// End-to-end sanity: on a real workload, a longer (serial) schedule
// must cost more static energy than a pipelined one, with identical
// dynamic energy.
func TestSerialCostsMoreStaticEnergy(t *testing.T) {
	d, _ := graphgen.ByName("ddi")
	cfg := stage.Config{
		Chip:       reram.DefaultChip(),
		Dataset:    d,
		Deg:        d.SynthDegreeModel(1),
		MicroBatch: 64,
	}
	stages := stage.Build(cfg)
	xb := stage.TotalCrossbars(stages)

	serial := Compute(cfg.Chip, stages, 67, 1e9, xb)    // long makespan
	pipelined := Compute(cfg.Chip, stages, 67, 2e8, xb) // 5× shorter
	if serial.ReadPJ != pipelined.ReadPJ || serial.WritePJ != pipelined.WritePJ {
		t.Fatal("dynamic energy must not depend on the schedule")
	}
	if serial.StaticPJ <= pipelined.StaticPJ {
		t.Fatal("longer schedules must burn more static energy")
	}
	if serial.TotalPJ() <= pipelined.TotalPJ() {
		t.Fatal("serial total must exceed pipelined total")
	}
}
