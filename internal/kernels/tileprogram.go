package kernels

import (
	"repro/internal/fp16"
	"repro/internal/wse"
)

// TileProgram is a per-machine SpMV program with host-visible per-tile
// storage — what ProgramSpMV needs to put one under the solve loop.
// SpMV3D (Listing 1), stencilc.Program3D (one here, one per wafer in
// multiwafer) and stencilc.Program2D satisfy it.
type TileProgram interface {
	// Iterate returns tile i's live iterate storage, PerTile elements.
	Iterate(i int) []fp16.Float16
	// CopyResult copies tile i's PerTile result elements to dst.
	CopyResult(i int, dst []fp16.Float16)
	Run(maxCycles int64) (int64, error)
}

// ProgramSpMV returns the Substrate.SpMV over one TileProgram per
// machine — the one place solver vectors are copied into and out of a
// program: copy src into every program's iterate storage, let exchange
// (nil on one machine) ship the halos that cross a machine edge and
// return their edge-I/O cycles, run every program — the slowest is
// charged — and copy the results to dst. The copies model descriptor
// re-aliasing and are free.
func ProgramSpMV(machines []*wse.Machine, progs []TileProgram, perTile int, exchange func() int64) func(src, dst [][]int, acc *PhaseCycles) error {
	return func(src, dst [][]int, acc *PhaseCycles) error {
		for p, m := range machines {
			for i, t := range m.Tiles {
				copy(progs[p].Iterate(i), t.Arena.Slice(src[p][i], perTile))
			}
		}
		if exchange != nil {
			acc.EdgeIO += exchange()
		}
		var cycles int64
		for _, prog := range progs {
			c, err := prog.Run(int64(perTile)*1000 + 1<<20)
			if err != nil {
				return err
			}
			cycles = max(cycles, c)
		}
		acc.SpMV += cycles
		for p, m := range machines {
			for i, t := range m.Tiles {
				progs[p].CopyResult(i, t.Arena.Slice(dst[p][i], perTile))
			}
		}
		return nil
	}
}
