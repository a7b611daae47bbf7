package stencilc

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/perfmodel"
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
// The eligibility gate rejects any starting state the replay does not
// model (non-default hardware shape, a sub-mesh wafer, words in
// flight), falling back to cycle simulation; Program2D has no replay
// and always cycle-simulates (under EngineFastForward its cores still
// step through the batched engine). The engine-equivalence tests pin
// fingerprint, cycle count and result bits against sequential
// stepping.

// ff3d is the compiled fast-forward plan: the replay template plus the
// per-tile static shape of the compute phase.
type ff3d struct {
	replay *perfmodel.ExchangeReplay
	tiles  []ff3dTile
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
	if cfg.SIMDWidth != 4 || !cfg.DefaultQueueDepths() {
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
// stage lists of the perfmodel entry for this shape (ffEligible holds
// the mesh to the fabric, so they are a function of fabric geometry
// alone) plus each router's live entry layout, with non-exchange
// entries kept as dead rotation slots.
func (p *Program3D) buildFF() *ff3d {
	w, h := p.M.Cfg.FabricW, p.M.Cfg.FabricH
	model := perfmodel.StencilApply3D{W: w, H: h, Z: p.Mesh.NZ, Widths: p.Spec.Widths, SumSq: p.Spec.Reduce == ReduceSumSq}
	f := &ff3d{tiles: make([]ff3dTile, len(p.tiles))}
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
			p.hops(st, r, func(d HaloDir, _, store int) {
				nb := p.tiles[(st.y+haloDelta[d][1])*w+st.x+haloDelta[d][0]]
				copy(st.tile.Arena.Slice(store, z), nb.tile.Arena.Slice(sendOff(nb, opposite(d), r), z))
			})
		}
	}

	// Memory, compute phase; then write the counters back.
	for i, st := range p.tiles {
		p.ffCompute(st)
		ft := &p.ff.tiles[i]
		st.compute.FastForwardComplete(ft.pcEnd)
		if st.dotTask != nil {
			st.dotTask.FastForwardComplete(1)
		}
		st.tile.Core.FastForwardAccount(res.Busy[i], res.RxLanes[i]+ft.lanes)
		st.round = p.rounds + 1
		st.exLeft = 0
		p.done[i] = true
	}
	fab.ApplyReplay(res.Cycles, res.Moves, res.RR, res.Hot)
	p.M.FastForwardSteps(res.Cycles)
	return res.Cycles, true
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
