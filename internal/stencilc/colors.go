package stencilc

import "repro/internal/fabric"

// NumExchangeColors is the number of virtual channels every block- or
// column-halo exchange needs: one per direction of travel. Every link
// is a single hop (relay rounds reuse the same colors), so four colors
// suffice for the whole fabric at any halo width.
const NumExchangeColors = 4

// Directional exchange colors, offsets from a program's base color.
// The name is the direction a word travels: a tile receives ColEast
// words from its west neighbour, and so on. Both the 2D block-halo and
// the 3D column-halo lowerings draw their colors from this one
// assignment (the kernels package re-exports it), so the invariants —
// a tile's outgoing color differs from all four incoming ones, and the
// four incoming colors are pairwise distinct — are checked once, by
// TestExchangeColorsDistinct.
const (
	ColEast = iota
	ColWest
	ColSouth
	ColNorth
)

// RouteExchange programs the four single-hop directional streams on a
// w×h fabric starting at base: a word a tile injects on base+ColEast
// crosses one link east and rides the neighbour's ramp, symmetrically
// for the other directions. Both lowerings and every halo kernel share
// this one routing block.
func RouteExchange(f *fabric.Fabric, w, h int, base fabric.Color) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			at := fabric.Coord{X: x, Y: y}
			if x < w-1 {
				f.SetRoute(at, fabric.Ramp, base+ColEast, fabric.Mask(fabric.East))
				f.SetRoute(fabric.Coord{X: x + 1, Y: y}, fabric.West, base+ColEast, fabric.Mask(fabric.Ramp))
			}
			if x > 0 {
				f.SetRoute(at, fabric.Ramp, base+ColWest, fabric.Mask(fabric.West))
				f.SetRoute(fabric.Coord{X: x - 1, Y: y}, fabric.East, base+ColWest, fabric.Mask(fabric.Ramp))
			}
			if y < h-1 {
				f.SetRoute(at, fabric.Ramp, base+ColSouth, fabric.Mask(fabric.South))
				f.SetRoute(fabric.Coord{X: x, Y: y + 1}, fabric.North, base+ColSouth, fabric.Mask(fabric.Ramp))
			}
			if y > 0 {
				f.SetRoute(at, fabric.Ramp, base+ColNorth, fabric.Mask(fabric.North))
				f.SetRoute(fabric.Coord{X: x, Y: y - 1}, fabric.South, base+ColNorth, fabric.Mask(fabric.Ramp))
			}
		}
	}
}

// HaloDir names the four lateral halo directions from the owning
// tile's point of view: HaloXP is the halo received from the +x
// neighbour, and so on. (The kernels package aliases this type for its
// public halo API.)
type HaloDir int

// The four halo directions.
const (
	HaloXP HaloDir = iota
	HaloXM
	HaloYP
	HaloYM
	NumHaloDirs
)

// haloTravel maps a halo direction to the directional exchange color
// the data travels on: the +x neighbour's column arrives moving west.
var haloTravel = [NumHaloDirs]int{HaloXP: ColWest, HaloXM: ColEast, HaloYP: ColNorth, HaloYM: ColSouth}

// haloOut maps a halo direction to the color this tile's own data
// leaves on toward that neighbour.
var haloOut = [NumHaloDirs]int{HaloXP: ColEast, HaloXM: ColWest, HaloYP: ColSouth, HaloYM: ColNorth}

// haloDelta is the fabric-coordinate offset of the neighbour in each
// halo direction.
var haloDelta = [NumHaloDirs][2]int{HaloXP: {1, 0}, HaloXM: {-1, 0}, HaloYP: {0, 1}, HaloYM: {0, -1}}

// opposite returns the halo direction facing d.
func opposite(d HaloDir) HaloDir {
	switch d {
	case HaloXP:
		return HaloXM
	case HaloXM:
		return HaloXP
	case HaloYP:
		return HaloYM
	default:
		return HaloYP
	}
}

// axisOf returns the axis (0 = x, 1 = y) a halo direction varies.
func axisOf(d HaloDir) int {
	if d == HaloXP || d == HaloXM {
		return 0
	}
	return 1
}
