package stencilc

import (
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/perfmodel"
)

// This file is Program3D's fast-forward path, the exchange half of the
// hybrid fast-forward engine (wse.EngineFastForward; the solver's vector
// phases are wse.VectorPhase's one-loop path). One application of the
// compiled program is a closed phase: the machine starts idle, the
// relay rounds and per-tile compute run to completion, and the machine
// is idle again. Its effect therefore splits cleanly in two:
//
//   - memory: the halo columns become verbatim copies of neighbour
//     columns (relay round r copies what round r-1 copied, one hop
//     further) and the result column is the fixed instruction sequence,
//     evaluated elementwise in the same order with the same fp16
//     roundings — both reproducible by plain host loops over the
//     program's own walks (Program3D.hops, Program3D.terms) with no
//     per-application instruction allocation at all;
//   - counters: cycles, word moves, router rotations, the hot set, and
//     each core's busy/lane tallies — reproduced exactly by
//     perfmodel.ExchangeReplay, the word-granular phase model, over the
//     stage lists perfmodel.StencilApply3D.Stages writes and the live
//     fabric's entry layouts, rotation seeds and hot set.
//
// The two halves share no state, so they run at once
// (fabric.Fabric.RunPair): the replay on the caller, the memory loops
// on a free helper of the machine's sharded fabric. Only once both finish is the replayed cycle count held to
// Run's budget. An over-budget application therefore has already
// advanced memory, and undoes it exactly before falling back to cycle
// simulation: the exchange saved every halo column it overwrote and
// puts them back; the result column and the partials need no copy,
// because Arm clears both before the stepped application starts.
//
// A sub-mesh wafer (a multiwafer grid's, at a tile offset) is the same
// phase: its exchange schedule is a function of fabric geometry alone,
// and the model is told the wafer's placement so each tile's compute
// stage counts the lateral terms whose halo the host ships across a
// wafer edge. The eligibility gate rejects any starting state the
// replay does not model (non-default hardware shape, words in flight),
// falling back to cycle simulation; Program2D has no replay and always
// cycle-simulates (under EngineFastForward its cores step through the
// sequential reference interpreter). The engine-equivalence tests pin
// fingerprint, cycle count and result bits against sequential
// stepping, whole-mesh and placed.

// ff3d is the compiled fast-forward plan: the replay template, the
// per-tile static shape of the compute phase, and the two halves
// tryFastForward overlaps, built once so an application allocates
// nothing.
type ff3d struct {
	replay *perfmodel.ExchangeReplay
	tiles  []ff3dTile

	counters func()                 // the replay, into res
	memory   func()                 // ffExchange, then ffCompute on every tile
	res      perfmodel.ReplayResult // the last application's counters
	saved    []fp16.Float16         // halo columns ffExchange overwrote
}

type ff3dTile struct {
	pcEnd int   // compute-task instruction count
	lanes int64 // compute (+ fused dot) lane issues, Σ nᵢ (+2Z)
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
// state is exactly the phase the replay models: the default hardware
// shape (SIMD-4 datapath, depth-4 queues — the perfmodel constants) on
// a Settled machine with empty worklists. (A jump with listed cores
// would be exact too, but compilation lists every core, and the
// over-budget and overlap tests count on the first application after
// Compile3D being cycle-simulated.) Placement in the mesh does not
// matter.
func (p *Program3D) ffEligible() bool {
	m := p.M
	return m.Cfg.SIMDWidth == 4 && m.Cfg.DefaultQueueDepths() && m.Settled() && m.AllIdle()
}

// shape is the static shape of tile st's compute phase — what a cycle
// simulation of the instructions terms emits (and the fused dot) leaves
// in the task's program counter and costs in datapath cycles and lane
// issues. The per-term rule is wse.StaticCycles' (⌈n/SIMD⌉ cycles, n
// lanes; two lanes per element of the mixed dot), applied to the term
// lengths rather than to instructions built for the purpose: building
// them cost 7 % of a one-solve 60×50×4 job. TestTermsWalkIsTheProgram
// holds the result to StaticCycles over the built task.
func (p *Program3D) shape(st *tile3D) (pcEnd int, cycles, lanes int64) {
	simd := p.M.Cfg.SIMDWidth
	p.terms(st, func(t term) {
		pcEnd++
		cycles += int64((t.n + simd - 1) / simd)
		lanes += int64(t.n)
	})
	if st.dotTask != nil {
		lanes += int64(2 * p.Mesh.NZ)
	}
	return pcEnd, cycles, lanes
}

// buildFF compiles the fast-forward plan once per program: the static
// compute shape of every tile and the exchange replay template — the
// stage lists of the perfmodel entry for this shape and placement plus
// each router's live entry layout, with non-exchange entries kept as
// dead rotation slots.
func (p *Program3D) buildFF() *ff3d {
	w, h := p.M.Cfg.FabricW, p.M.Cfg.FabricH
	model := perfmodel.StencilApply3D{W: w, H: h, Z: p.Mesh.NZ, Widths: p.Spec.Widths, SumSq: p.Spec.Reduce == ReduceSumSq,
		MeshX: p.Mesh.NX, MeshY: p.Mesh.NY, X0: p.X0, Y0: p.Y0}
	f := &ff3d{tiles: make([]ff3dTile, len(p.tiles))}
	// NewExchangeReplay copies each tile's spec before asking for the
	// next, so one pair of buffers serves every tile.
	var keys []fabric.RouteKey
	var entries []perfmodel.ReplayEntry
	f.replay = perfmodel.NewExchangeReplay(w, h, func(ti int) perfmodel.ReplayTileSpec {
		st := p.tiles[ti]
		keys = p.M.Fab.EntryLayout(keys[:0], ti)
		entries = slices.Grow(entries[:0], len(keys))[:len(keys)]
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
		stages := model.Stages(st.x, st.y)
		pcEnd, cycles, lanes := p.shape(st)
		compute := len(stages) - 1
		if st.dotTask != nil {
			compute--
		}
		if int64(stages[compute].Task) != cycles {
			panic(fmt.Sprintf("stencilc: tile (%d,%d): perfmodel compute stage of %d cycles, program of %d",
				st.x, st.y, stages[compute].Task, cycles))
		}
		f.tiles[ti] = ff3dTile{pcEnd: pcEnd, lanes: lanes}
		return perfmodel.ReplayTileSpec{Entries: entries, Stages: stages}
	})

	fab := p.M.Fab
	f.counters = func() { f.res = f.replay.Run(fab.RR, fab.HotTiles()) }
	f.memory = func() {
		p.ffExchange()
		for _, st := range p.tiles {
			p.ffCompute(st)
		}
	}
	halos := 0
	for r := 1; r <= p.rounds; r++ {
		for _, st := range p.tiles {
			p.hops(st, r, func(HaloDir, int, int) { halos++ })
		}
	}
	f.saved = make([]fp16.Float16, 0, halos*p.Mesh.NZ)
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
// counter replay runs beside the memory half (fabric.Fabric.RunPair) and
// the budget is checked only once both are done, so an over-budget
// application first puts back the halo columns ffExchange overwrote;
// the result column and the partials need no restoring, since Arm
// clears both.
func (p *Program3D) tryFastForward(maxCycles int64) (int64, bool) {
	if !p.ffEligible() {
		return 0, false
	}
	if p.ff == nil {
		p.ff = p.buildFF()
	}
	f := p.ff
	p.M.Fab.RunPair(f.counters, f.memory)
	res := f.res
	if res.Cycles > maxCycles {
		p.ffRestoreHalos()
		return 0, false
	}
	for i, st := range p.tiles {
		ft := &f.tiles[i]
		st.compute.FastForwardComplete(ft.pcEnd)
		if st.dotTask != nil {
			st.dotTask.FastForwardComplete(1)
		}
		st.tile.Core.FastForwardAccount(res.Busy[i], res.RxLanes[i]+ft.lanes)
		st.round = p.rounds + 1
		st.exLeft = 0
		p.done[i] = true
	}
	p.M.Fab.ApplyReplay(res.Cycles, res.Moves, res.RR, res.Hot)
	p.M.FastForwardSteps(res.Cycles)
	return res.Cycles, true
}

// ffExchange is the memory half's exchange phase: relay round r copies
// the neighbour's round-(r−1) column verbatim (its iterate for r = 1),
// exactly the bit-preserving stream hop — including columns beyond the
// global mesh, whose garbage payload the uniform schedule moves and the
// compute phase ignores. Rounds only read the previous round's halos,
// so a per-round tile sweep has no ordering hazard. Every halo column
// is written once per application; its old contents go to p.ff.saved
// first, in walk order, for ffRestoreHalos.
func (p *Program3D) ffExchange() {
	z := p.Mesh.NZ
	w := p.M.Cfg.FabricW
	saved := p.ff.saved[:0]
	for r := 1; r <= p.rounds; r++ {
		for _, st := range p.tiles {
			p.hops(st, r, func(d HaloDir, _, store int) {
				nb := p.tiles[(st.y+haloDelta[d][1])*w+st.x+haloDelta[d][0]]
				h := st.tile.Arena.Slice(store, z)
				saved = append(saved, h...)
				copy(h, nb.tile.Arena.Slice(sendOff(nb, opposite(d), r), z))
			})
		}
	}
	p.ff.saved = saved
}

// ffRestoreHalos puts back the halo columns ffExchange overwrote,
// walking the same hops in the same order.
func (p *Program3D) ffRestoreHalos() {
	z := p.Mesh.NZ
	saved := p.ff.saved
	for r := 1; r <= p.rounds; r++ {
		for _, st := range p.tiles {
			p.hops(st, r, func(_ HaloDir, _, store int) {
				saved = saved[copy(st.tile.Arena.Slice(store, z), saved):]
			})
		}
	}
}

// ffCompute evaluates tile st's compute task on the host: the terms walk
// handed, operand for operand, to the same element kernel the simulated
// datapath runs (wse.MemOpKind.Apply) — so it is bit-identical by
// construction, with no instruction allocated.
func (p *Program3D) ffCompute(st *tile3D) {
	a := st.tile.Arena
	u := a.Slice(st.offU, p.Mesh.NZ)
	clear(u)
	p.terms(st, func(t term) {
		t.kind.Apply(0, a.Slice(t.dst, t.n), a.Slice(t.a, t.n), a.Slice(t.b, t.n))
	})
	if st.dotTask != nil {
		p.partials[st.ti] = fp16.DotMixed(u, u)
	}
}
