package perfmodel

import "fmt"

// This file models the cycle cost of one application of the programs the
// stencil compiler (internal/stencilc) emits: the 3D Z-column relay
// program (Program3D) and the 2D block-halo program (Program2D). Unlike
// the coarse per-iteration coefficients of SimModel, these entries are
// *exact*, and they are thin clients of the one word-granular engine in
// replay.go: each builds the stage lists its program would run and the
// route-entry layout RouteExchange would configure on a fresh fabric
// (no foreign entries, rotation counters at zero, nothing hot), replays
// one application with ExchangeReplay, and reports its cycle count.
// TestStencilApplyModelExact pins them bit-exactly to the cycle
// simulator across shapes, widths and engines, the same contract
// HaloSpMVCycles carries for the width-1 kernel.
//
// Cost: O(W·H·active cycles) counter updates. Completion times depend on
// a tile's clamped distance to each fabric edge (timing influence
// travels at most one hop per relay round plus a few cycles of queue
// backpressure), so fabrics larger than a dependency horizon are reduced
// to it before replay — that is what makes the entries usable at paper
// scale, where the cycle simulator itself is the expensive thing being
// modelled. The reduction is pinned by the same test.

// StencilApply3D describes one application of a stencil-compiled 3D
// column-halo program on a W×H fabric holding the full W×H×Z mesh (the
// single-wafer configuration kernels.NewWaferStarBackend builds).
type StencilApply3D struct {
	W, H, Z int
	Widths  [3]int
	// SumSq adds the fused per-tile Σy² reduction of ReduceSumSq specs.
	SumSq bool
}

// StencilApply2D describes one application of a stencil-compiled 2D
// block-halo program on a W×H fabric with B×B blocks. Points is the
// spec's point count: 5 for a star, 9 for a box (the exchange schedule
// is shared; only the scatter instruction count differs).
type StencilApply2D struct {
	W, H, B int
	Points  int
	SumSq   bool
}

// Cycles returns the exact simulated cycle count of one application. It
// panics on Z < 1, a column no program can be compiled for.
func (s StencilApply3D) Cycles() int64 {
	if s.Z < 1 {
		panic(fmt.Sprintf("perfmodel: StencilApply3D with Z = %d, want Z >= 1", s.Z))
	}
	r := max(s.Widths[0], s.Widths[1])
	s.W, s.H = saClamp(s.W, r), saClamp(s.H, r)
	return saRun(s.W, s.H, s.Stages)
}

// Cycles returns the exact simulated cycle count of one application. It
// panics on B < 2, a block too small to hold a halo transfer.
func (s StencilApply2D) Cycles() int64 {
	if s.B < 2 {
		panic(fmt.Sprintf("perfmodel: StencilApply2D with B = %d, want B >= 2", s.B))
	}
	s.W, s.H = saClamp(s.W, 1), saClamp(s.H, 1)
	return saRun(s.W, s.H, s.Stages)
}

// HaloAdds returns the halo-sum additions of one application — every
// element a tile folds in from a neighbour's output halo, the redundant
// work Overhead2D models: (B+2) per x-interface side and B per
// y-interface side, read off the stage lists.
func (s StencilApply2D) HaloAdds() int {
	adds := 0
	for y := 0; y < s.H; y++ {
		for x := 0; x < s.W; x++ {
			for _, sg := range s.Stages(x, y) {
				for _, rx := range sg.Rx {
					adds += rx.Elems
				}
			}
		}
	}
	return adds
}

// saClamp reduces a fabric extent to the dependency horizon for a
// program of the given relay-round count: a tile's completion time
// depends only on its distance to each edge, clamped where the extent
// exceeds twice the horizon (rounds of single-hop influence plus a
// margin for queue backpressure), so the reduced fabric contains a
// representative of every timing class of the full one.
func saClamp(n, rounds int) int {
	horizon := rounds + 8
	if n > 2*horizon+1 {
		return 2*horizon + 1
	}
	return n
}

// saRun replays one application on a fresh w×h fabric: no foreign route
// entries, rotation counters at zero, nothing hot.
func saRun(w, h int, stages func(x, y int) []ReplayStage) int64 {
	r := NewExchangeReplay(w, h, func(ti int) ReplayTileSpec {
		x, y := ti%w, ti/w
		return ReplayTileSpec{Entries: saEntries(x, y, w, h), Stages: stages(x, y)}
	})
	return r.Run(func(int) int64 { return 0 }, nil).Cycles
}

// saEntries returns a tile's route entries in RouteExchange's
// configuration order: the tile above and to the left are visited first
// (their neighbour-side calls land before this tile's own ramp entries),
// the tile to the right and below after.
func saEntries(x, y, w, h int) []ReplayEntry {
	var entries []ReplayEntry
	add := func(on bool, kind ReplayEntryKind, color uint8) {
		if on {
			entries = append(entries, ReplayEntry{Kind: kind, Color: color})
		}
	}
	add(y > 0, ReplayDeliver, saSouth)
	add(x > 0, ReplayDeliver, saEast)
	add(x < w-1, ReplayInject, saEast)
	add(x > 0, ReplayInject, saWest)
	add(y < h-1, ReplayInject, saSouth)
	add(y > 0, ReplayInject, saNorth)
	add(x < w-1, ReplayDeliver, saWest)
	add(y < h-1, ReplayDeliver, saNorth)
	return entries
}

func saCeil4(n int) int { return (n + 3) / 4 }

// saAxis and the directional tables mirror stencilc's halo-direction
// order (XP, XM, YP, YM — also the thread slot order).
var (
	saHaloOut   = [4]int{saEast, saWest, saSouth, saNorth}
	saHaloIn    = [4]int{saWest, saEast, saNorth, saSouth}
	saHaloDelta = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
)

func saAxis(d int) int {
	if d < 2 {
		return 0
	}
	return 1
}

// Stages returns the stage list of the Program3D tile at fabric (x, y):
// max(Wx,Wy) relay rounds (each active direction sends Z/2 words and
// stores Z elements), then the compute task in OpStarHalf.Apply's
// instruction order, then the optional fused Σy² dot.
func (s StencilApply3D) Stages(x, y int) []ReplayStage {
	w, h, z, widths := s.W, s.H, s.Z, s.Widths
	rounds := max(widths[0], widths[1])
	nb := [4]bool{x < w-1, x > 0, y < h-1, y > 0}
	var stages []ReplayStage
	for r := 1; r <= rounds; r++ {
		st := ReplayStage{Task: -1}
		for d := 0; d < 4; d++ {
			if nb[d] && r <= widths[saAxis(d)] {
				st.Tx = append(st.Tx, ReplayTx{Color: saHaloOut[d], Words: z / 2})
				st.Rx = append(st.Rx, ReplayRx{Color: saHaloIn[d], Elems: z})
			}
		}
		if len(st.Tx) > 0 {
			stages = append(stages, st)
		}
	}
	compute := 0
	if z > 1 {
		compute += 2 * saCeil4(z-1)
	}
	for k := 2; k <= widths[2]; k++ {
		if z > k {
			compute += 2 * saCeil4(z-k)
		}
	}
	for d := 0; d < 4; d++ {
		for k := 1; k <= widths[saAxis(d)]; k++ {
			nx, ny := x+k*saHaloDelta[d][0], y+k*saHaloDelta[d][1]
			if nx >= 0 && nx < w && ny >= 0 && ny < h {
				compute += saCeil4(z)
			}
		}
	}
	compute += saCeil4(z) // the unit-diagonal add
	stages = append(stages, ReplayStage{Task: compute})
	if s.SumSq {
		stages = append(stages, ReplayStage{Task: (z + 1) / 2})
	}
	return stages
}

// Stages returns the stage list of the Program2D tile at fabric (x, y):
// the scatter task (one block FMAC per stencil point), the ±x
// halo-column round (B+2 elements per transfer), the ±y row round (B
// elements), and the optional fused Σy² dot.
func (s StencilApply2D) Stages(x, y int) []ReplayStage {
	w, h, b := s.W, s.H, s.B
	stages := []ReplayStage{{Task: s.Points * saCeil4(b*b)}}
	xr := ReplayStage{Task: -1}
	if x > 0 {
		xr.Tx = append(xr.Tx, ReplayTx{Color: saWest, Words: (b + 2) / 2})
	}
	if x < w-1 {
		xr.Tx = append(xr.Tx, ReplayTx{Color: saEast, Words: (b + 2) / 2})
	}
	if x > 0 {
		xr.Rx = append(xr.Rx, ReplayRx{Color: saEast, Elems: b + 2})
	}
	if x < w-1 {
		xr.Rx = append(xr.Rx, ReplayRx{Color: saWest, Elems: b + 2})
	}
	if len(xr.Tx)+len(xr.Rx) > 0 {
		stages = append(stages, xr)
	}
	yr := ReplayStage{Task: -1}
	if y > 0 {
		yr.Tx = append(yr.Tx, ReplayTx{Color: saNorth, Words: b / 2})
	}
	if y < h-1 {
		yr.Tx = append(yr.Tx, ReplayTx{Color: saSouth, Words: b / 2})
	}
	if y > 0 {
		yr.Rx = append(yr.Rx, ReplayRx{Color: saSouth, Elems: b})
	}
	if y < h-1 {
		yr.Rx = append(yr.Rx, ReplayRx{Color: saNorth, Elems: b})
	}
	if len(yr.Tx)+len(yr.Rx) > 0 {
		stages = append(stages, yr)
	}
	if s.SumSq {
		stages = append(stages, ReplayStage{Task: (b*b + 1) / 2})
	}
	return stages
}
