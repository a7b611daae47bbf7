// Package kernels implements the paper's wafer programs on the simulated
// CS-1: the 3D 7-point SpMV of Listing 1/Figure 4 with the tessellation
// routing of Figure 5, the scalar AllReduce of Figure 6, the AXPY and
// mixed-precision dot kernels, and the shared BiCGStab driver that
// composes them with the stencil compiler's programs (internal/stencilc:
// the halo-resident 3D SpMV the star and multiwafer solvers run, the
// cycle-simulated 2D block-halo SpMV and its functional reference).
// Every SpMV program reaches the driver through one adapter,
// ProgramSpMV over the three-method TileProgram. See
// docs/ARCHITECTURE.md for each kernel's determinism class and the
// color-assignment map.
package kernels

import "repro/internal/fabric"

// NumStencilColors is the number of virtual channels the tessellation
// pattern needs: each tile broadcasts on one color and receives its four
// neighbours' broadcasts on four distinct other colors.
const NumStencilColors = 5

// BroadcastColor returns the color tile (x, y) uses to broadcast its local
// iterate vector to its four neighbours (and loop back to itself), the
// tessellation of Figure 5. The assignment c = (x + 2y) mod 5 guarantees
// that at every tile the outgoing color differs from each of the four
// incoming colors: the ±x neighbours differ by ±1 and the ±y neighbours
// by ±2 (mod 5), none of which is 0.
func BroadcastColor(x, y int) fabric.Color {
	return fabric.Color((x + 2*y) % NumStencilColors)
}

// StencilColorsDistinct verifies the Figure 5 property at (x, y): the
// tile's own color differs from the colors of all four neighbours, and
// the four neighbour colors are pairwise distinct (so the four receive
// streams are separable). Exported for tests and the routing experiment.
func StencilColorsDistinct(x, y int) bool {
	own := BroadcastColor(x, y)
	nbr := []fabric.Color{
		BroadcastColor(x+1, y),
		BroadcastColor(x-1+NumStencilColors, y), // keep arguments non-negative
		BroadcastColor(x, y+1),
		BroadcastColor(x, y-1+NumStencilColors*2),
	}
	seen := map[fabric.Color]bool{own: true}
	for _, c := range nbr {
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}
