package stencilc

import (
	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/perfmodel"
	"repro/internal/wse"
)

// This file is Program3D's fast-forward path, the exchange half of the
// hybrid fast-forward engine (wse.EngineFastForward; the compute-task
// half is wse.Machine.FastForwardTasks). One application of the
// compiled program is a closed phase: the machine starts idle, the
// relay rounds and per-tile compute run to completion, and the machine
// is idle again. Its effect therefore splits cleanly in two:
//
//   - memory: the halo columns become verbatim copies of neighbour
//     columns (relay round r copies what round r-1 copied, one hop
//     further) and the result column is the fixed instruction sequence
//     armTile emits, evaluated elementwise in the same order with the
//     same fp16 roundings — both reproducible by plain host loops with
//     no per-application instruction allocation at all;
//   - counters: cycles, word moves, router rotations, the hot set, and
//     each core's busy/lane tallies — reproduced exactly by
//     perfmodel.ExchangeReplay, the word-granular phase model
//     parameterized by the live fabric's entry layouts, rotation seeds
//     and hot set.
//
// The eligibility gate rejects any starting state the replay does not
// model (non-default hardware shape, a sub-mesh wafer, words in
// flight), falling back to cycle simulation; Program2D has no replay
// and always cycle-simulates (under EngineFastForward its cores still
// step through the batched engine). The engine-equivalence tests pin
// fingerprint, cycle count and result bits against sequential
// stepping.

// ff3d is the compiled fast-forward plan: the replay template plus the
// per-tile static compute shape armTile would emit.
type ff3d struct {
	replay *perfmodel.ExchangeReplay
	tiles  []ff3dTile
}

type ff3dTile struct {
	pcEnd  int   // compute-task instruction count
	cycles int   // compute-task datapath cycles, Σ ceil(nᵢ/SIMD)
	lanes  int64 // compute (+ fused dot) lane issues, Σ nᵢ (+2Z)
}

// ffDeliverIn maps a direction-of-travel color to the router input
// port its words arrive on: eastbound words enter on the west port.
var ffDeliverIn = [NumExchangeColors]fabric.Port{
	ColEast:  fabric.West,
	ColWest:  fabric.East,
	ColSouth: fabric.North,
	ColNorth: fabric.South,
}

// ffEligible reports whether one application from the current machine
// state is exactly the phase the replay models: fast-forward engine,
// default hardware shape (SIMD-4 datapath, depth-4 queues — the
// perfmodel constants), a single wafer holding the full mesh (so the
// lateral-term schedule is determined by fabric geometry alone), and a
// machine with nothing in flight.
func (p *Program3D) ffEligible() bool {
	m := p.M
	if !m.FastForwardEnabled() {
		return false
	}
	cfg := m.Cfg
	if cfg.SIMDWidth != 4 ||
		(cfg.QueueDepth > 0 && cfg.QueueDepth != 4) ||
		(cfg.RxDepth > 0 && cfg.RxDepth != 4) {
		return false
	}
	if p.X0 != 0 || p.Y0 != 0 || p.Mesh.NX != cfg.FabricW || p.Mesh.NY != cfg.FabricH {
		return false
	}
	if !m.AllIdle() {
		return false
	}
	for _, st := range p.tiles {
		if !st.tile.Core.RxQuiet() {
			return false
		}
		for d := HaloDir(0); d < NumHaloDirs; d++ {
			if st.from[d] != nil && st.from[d].Len() > 0 {
				return false
			}
		}
	}
	return true
}

// buildFF compiles the fast-forward plan once per program: the static
// compute shape of every tile (instruction count, datapath cycles,
// lane issues — mirroring armTile's emission) and the exchange replay
// template (stage lists in thread-slot order plus each router's live
// entry layout, with non-exchange entries kept as dead rotation
// slots).
func (p *Program3D) buildFF() *ff3d {
	w, h := p.M.Cfg.FabricW, p.M.Cfg.FabricH
	z := p.Mesh.NZ
	f := &ff3d{tiles: make([]ff3dTile, len(p.tiles))}
	for i, st := range p.tiles {
		t := &f.tiles[i]
		addOp := func(elems int) {
			t.pcEnd++
			t.cycles += (elems + 3) / 4
			t.lanes += int64(elems)
		}
		if z > 1 {
			addOp(z - 1)
			addOp(z - 1)
		}
		for k := 2; k <= p.Spec.Widths[2]; k++ {
			if z > k {
				addOp(z - k)
				addOp(z - k)
			}
		}
		for d := HaloDir(0); d < NumHaloDirs; d++ {
			for k := 1; k <= p.Spec.Widths[axisOf(d)]; k++ {
				if p.inMesh(st, d, k) {
					addOp(z)
				}
			}
		}
		addOp(z) // the unit-diagonal add
		if st.dotTask != nil {
			t.lanes += int64(2 * z)
		}
	}
	f.replay = perfmodel.NewExchangeReplay(w, h, func(ti int) perfmodel.ReplayTileSpec {
		st := p.tiles[ti]
		keys := p.M.Fab.EntryLayout(ti)
		entries := make([]perfmodel.ReplayEntry, len(keys))
		for j, k := range keys {
			col := int(k.C) - int(p.base)
			ent := perfmodel.ReplayEntry{Kind: perfmodel.ReplayDead}
			if col >= 0 && col < NumExchangeColors {
				if k.In == fabric.Ramp {
					ent = perfmodel.ReplayEntry{Kind: perfmodel.ReplayInject, Color: uint8(col)}
				} else if k.In == ffDeliverIn[col] {
					ent = perfmodel.ReplayEntry{Kind: perfmodel.ReplayDeliver, Color: uint8(col)}
				}
			}
			entries[j] = ent
		}
		var stages []perfmodel.ReplayStage
		for r := 1; r <= p.rounds; r++ {
			sg := perfmodel.ReplayStage{Task: -1}
			for d := HaloDir(0); d < NumHaloDirs; d++ {
				if p.roundActive(st, d, r) {
					sg.Tx = append(sg.Tx, perfmodel.ReplayTx{Color: haloOut[d], Words: z / 2})
					sg.Rx = append(sg.Rx, perfmodel.ReplayRx{Color: haloTravel[d], Elems: z})
				}
			}
			if len(sg.Tx) > 0 {
				stages = append(stages, sg)
			}
		}
		stages = append(stages, perfmodel.ReplayStage{Task: f.tiles[ti].cycles})
		if st.dotTask != nil {
			stages = append(stages, perfmodel.ReplayStage{Task: (z + 1) / 2})
		}
		return perfmodel.ReplayTileSpec{Entries: entries, Stages: stages}
	})
	return f
}

// ExchangeReplay returns the counter replay built for this machine's
// live route layout, or nil before the first fast-forwarded Run built
// it. Benchmarks time it in isolation; tests read its Stats.
func (p *Program3D) ExchangeReplay() *perfmodel.ExchangeReplay {
	if p.ff == nil {
		return nil
	}
	return p.ff.replay
}

// tryFastForward attempts one application without cycle simulation.
// It must be called instead of Arm (not after — arming launches
// threads); on false the caller falls back to the ordinary path. The
// counter replay runs before anything is mutated, so an over-budget
// phase can still fall back cleanly.
func (p *Program3D) tryFastForward(maxCycles int64) (int64, bool) {
	if !p.ffEligible() {
		return 0, false
	}
	if p.ff == nil {
		p.ff = p.buildFF()
	}
	fab := p.M.Fab
	res := p.ff.replay.Run(fab.RR, fab.HotTiles())
	if res.Cycles > maxCycles {
		return 0, false
	}

	// Memory, exchange phase: relay round r copies the neighbour's
	// round-(r−1) column verbatim (its iterate for r = 1), exactly the
	// bit-preserving stream hop — including columns beyond the global
	// mesh, whose garbage payload the uniform schedule moves and the
	// compute phase ignores. Rounds only read the previous round's
	// halos, so a per-round tile sweep has no ordering hazard.
	z := p.Mesh.NZ
	w := p.M.Cfg.FabricW
	for r := 1; r <= p.rounds; r++ {
		for _, st := range p.tiles {
			for d := HaloDir(0); d < NumHaloDirs; d++ {
				if !p.roundActive(st, d, r) {
					continue
				}
				nb := p.tiles[(st.y+haloDelta[d][1])*w+st.x+haloDelta[d][0]]
				src := nb.offV
				if r > 1 {
					src = nb.offH[d][r-2]
				}
				copy(st.tile.Arena.Slice(st.offH[d][r-1], z), nb.tile.Arena.Slice(src, z))
			}
		}
	}

	// Memory, compute phase; then write the counters back.
	for i, st := range p.tiles {
		p.ffCompute(st, i)
		ft := &p.ff.tiles[i]
		st.compute.FastForwardComplete(ft.pcEnd)
		if st.dotTask != nil {
			st.dotTask.FastForwardComplete(1)
		}
		st.tile.Core.FastForwardAccount(res.Busy[i], res.RxLanes[i]+ft.lanes)
		st.round = p.rounds + 1
		st.exLeft = 0
		st.done = true
	}
	fab.ApplyReplay(res.Cycles, res.Moves, res.RR, res.Hot)
	p.M.FastForwardSteps(res.Cycles)
	return res.Cycles, true
}

// ffCompute evaluates tile st's compute task on the host: armTile's
// instruction sequence, operand for operand, handed to the same element
// kernel the simulated datapath runs (wse.MemOpKind.Apply) — so it is
// bit-identical by construction, with no instruction allocated.
func (p *Program3D) ffCompute(st *tile3D, i int) {
	z := p.Mesh.NZ
	a := st.tile.Arena
	u := a.Slice(st.offU, z)
	v := a.Slice(st.offV, z)
	clear(u)
	for k := 1; k <= p.Spec.Widths[2] && k < z; k++ {
		zm := a.Slice(st.offZ[zmIdx][k-1], z)
		zp := a.Slice(st.offZ[zpIdx][k-1], z)
		first := wse.OpMulAcc
		if k == 1 {
			first = wse.OpMul // u[z] = zm[z] * v[z-1] opens the sum
		}
		first.Apply(0, u[k:], zm[k:], v[:z-k])          // u[z] += zm_k[z] * v[z-k]
		wse.OpMulAcc.Apply(0, u[:z-k], zp[:z-k], v[k:]) // u[z] += zp_k[z] * v[z+k]
	}
	for d := HaloDir(0); d < NumHaloDirs; d++ {
		for k := 1; k <= p.Spec.Widths[axisOf(d)]; k++ {
			if p.inMesh(st, d, k) { // u += c_{d,k} * halo_{d,k}
				wse.OpMulAcc.Apply(0, u, a.Slice(st.offC[d][k-1], z), a.Slice(st.offH[d][k-1], z))
			}
		}
	}
	wse.OpAdd.Apply(0, u, u, v) // u += v (unit main diagonal)
	if st.dotTask != nil {
		p.partials[i] = fp16.DotMixed(u, u)
	}
}
