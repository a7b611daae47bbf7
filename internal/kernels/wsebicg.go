package kernels

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/tensor"
	"repro/internal/wse"
)

// Substrate is what a wafer BiCGStab solve runs on: one or more
// simulated machines ("parts") that together hold the distributed
// vectors, the operator application over them, and the canonical order
// in which host-side reductions visit their tiles. One machine is the
// one-part case (the 3D Listing 1, 2D block-halo and stencil-compiled
// star solvers of this package); internal/multiwafer supplies a grid of
// machines. Whoever supplies a Substrate gets the Algorithm 1
// recurrence, the exact dot combine, the per-wafer AllReduce
// cross-check and the cycle account (WSEStats) from BiCGStabEngine.
type Substrate struct {
	// Machines are the parts. Every tile of every machine gets seven
	// PerTile-element solver vectors and a phase task, and every machine
	// a Figure 6 AllReduce on the six colors starting at ARBase.
	Machines []*wse.Machine
	PerTile  int // Z for the 3D mappings, b² for the 2D block mapping
	ARBase   fabric.Color

	// SpMV applies the operator across the whole substrate: src[p][i] and
	// dst[p][i] are the arena offsets of part p, tile i's PerTile-element
	// source and result vectors. It charges its simulated cycles to acc —
	// SpMV for the slowest part and, where halos cross a machine edge,
	// EdgeIO.
	SpMV func(src, dst [][]int, acc *PhaseCycles) error
	// Index maps (part, tile, element) to the position in the global
	// right-hand-side and solution vectors.
	Index func(part, tile, elem int) int
	// Order lists every (part, tile) once, in the canonical global order
	// of the per-tile subvectors: the order of the exact dot combine and
	// of the float64 residual diagnostic, which is what makes both
	// independent of how the mesh was cut into parts. nil means part-major
	// fabric row-major order — canonical for one machine.
	Order [][2]int32
	// CombineCycles is charged to PhaseCycles.Combine once per dot: the
	// cost of combining the parts' partials and re-broadcasting the
	// scalar. Zero on one machine.
	CombineCycles int64
}

// vec names one of the seven per-tile solver vectors of Algorithm 1.
type vec int

const (
	vecX vec = iota
	vecR0
	vecR
	vecP
	vecS
	vecQ
	vecY
	numVecs
	noVec vec = -1
)

var vecNames = [numVecs]string{"x", "r0", "r", "p", "s", "q", "y"}

// part is one machine of the substrate with its reduction and its
// reusable per-tile phase state.
type part struct {
	m  *wse.Machine
	ar *AllReduce

	partial   []float32 // per-tile dot partials
	phaseTask []*wse.Task
	phaseDone []bool

	// Reusable per-tile phase instructions: a paper-scale solve runs
	// hundreds of thousands of tiles through a dozen-plus phases per
	// iteration, so allocating fresh instruction objects per phase
	// (hundreds of MB per solve) would dominate wall time with GC work.
	// Each phase instead rewrites these in place; phaseTask[i].Instrs
	// permanently aliases phaseSlot[i].
	dotIn     []wse.DotMixed
	axpyIn    []wse.MemOp
	phaseSlot [][]wse.Instr
}

// BiCGStabEngine is the wafer BiCGStab recurrence — the only copy of
// the Algorithm 1 control flow over simulated machines — parameterised
// by the Substrate it runs on. Dots run as the mixed-precision
// inner-product instruction on every tile; the Figure 6 AllReduce still
// combines each machine's partials on its fabric and is cycle-accounted,
// but the scalar the solver consumes is the exactly rounded combine
// (cluster.ExactSum32 over every tile's partial in canonical order), so
// every substrate is bit-comparable to the host and rank-parallel
// backends and to every other decomposition of the same mesh. Each
// machine's fabric tree-order value is cross-checked against the exact
// sum of its own partials within the paper's AllReduce error model on
// every dot; every vector update runs as a SIMD tensor instruction.
// Phases charge the slowest part: the machines run in lockstep.
//
// The driver sequences phases globally (the real machine chains them
// with local task triggers; the difference is a few cycles of
// task-start latency per phase, absorbed into the performance model's
// overhead calibration). Host-side copies between the solver vectors
// and the SpMV program's iterate/result buffers model descriptor
// re-aliasing and cost no cycles.
type BiCGStabEngine struct {
	sub   Substrate
	parts []*part
	// off[v][p][i] is the arena offset of vector v on part p, tile i.
	off [numVecs][][]int
	// order is Substrate.Order, materialized when that is nil; vals is
	// the gather buffer of the exact combine, nil when the one part's
	// partials already are in canonical order.
	order [][2]int32
	vals  []float32

	// maxDrift tracks the largest observed |fabric AllReduce − exact|
	// across all dots of the current solve, as a fraction of the paper
	// error-model bound (so ≤ 1 means within model).
	maxDrift float64
}

// NewBiCGStabEngine allocates, on every tile of every part, the seven
// solver vectors and the reusable phase task, and on every part the
// AllReduce routing.
func NewBiCGStabEngine(sub Substrate) (*BiCGStabEngine, error) {
	w := &BiCGStabEngine{sub: sub, order: sub.Order}
	for v := range w.off {
		w.off[v] = make([][]int, len(sub.Machines))
	}
	tiles := 0
	for p, m := range sub.Machines {
		ar, err := NewAllReduce(m, sub.ARBase)
		if err != nil {
			return nil, err
		}
		n := m.Cfg.Cores()
		tiles += n
		pt := &part{m: m, ar: ar,
			partial: make([]float32, n), phaseTask: make([]*wse.Task, n), phaseDone: make([]bool, n),
			dotIn: make([]wse.DotMixed, n), axpyIn: make([]wse.MemOp, n), phaseSlot: make([][]wse.Instr, n)}
		w.parts = append(w.parts, pt)
		for v := range w.off {
			w.off[v][p] = make([]int, n)
		}
		for i, t := range m.Tiles {
			for v, name := range vecNames {
				off, err := t.Arena.Alloc(name, sub.PerTile)
				if err != nil {
					return nil, fmt.Errorf("kernels: part %d tile %v: %v", p, t.Coord, err)
				}
				w.off[v][p][i] = off
			}
			// One reusable phase task per tile: the driver rewrites each
			// phase's instruction in place and re-activates it.
			task := &wse.Task{Name: "phase"}
			task.OnComplete = func(*wse.Core) { pt.phaseDone[i] = true }
			t.Core.AddTask(task)
			pt.phaseTask[i] = task
			pt.phaseSlot[i] = make([]wse.Instr, 1)
		}
	}
	if w.order == nil {
		w.order = make([][2]int32, 0, tiles)
		for p, pt := range w.parts {
			for i := range pt.partial {
				w.order = append(w.order, [2]int32{int32(p), int32(i)})
			}
		}
	}
	if sub.Order != nil || len(w.parts) > 1 {
		w.vals = make([]float32, len(w.order))
	}
	return w, nil
}

// Solve runs BiCGStab for the right-hand side bvec (indexed by
// Substrate.Index) with a zero initial guess. Checkpoint and resume
// are a one-part facility — a checkpoint packages one machine snapshot
// — and are refused on a multi-part substrate rather than dropped.
func (w *BiCGStabEngine) Solve(bvec []fp16.Float16, opts WSEOptions) ([]fp16.Float16, WSEStats, error) {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 100
	}
	n := w.sub.PerTile
	if want := len(w.order) * n; len(bvec) != want {
		return nil, WSEStats{}, fmt.Errorf("kernels: rhs length %d, want %d", len(bvec), want)
	}

	var (
		st      = WSEStats{Wafers: len(w.parts)}
		bnorm   float64
		rho     float64
		startIt int
	)
	w.maxDrift = 0

	if len(w.parts) > 1 && opts.CheckpointRequested() {
		return nil, st, fmt.Errorf("kernels: a %d-machine substrate does not support checkpoint/resume (one machine only)", len(w.parts))
	}
	if opts.Resume != nil {
		// Resume a checkpointed solve: the machine snapshot restores
		// every solver vector (they live in the tile arenas), the
		// checkpoint header restores the scalar recurrence state, and the
		// loop continues at the captured iteration — bit-identically to
		// the uninterrupted solve.
		cp, err := DecodeWSECheckpoint(opts.Resume)
		if err != nil {
			return nil, st, err
		}
		snap, err := wse.UnmarshalSnapshot(cp.Machine)
		if err != nil {
			return nil, st, err
		}
		if err := w.parts[0].m.Restore(snap); err != nil {
			return nil, st, err
		}
		st = cp.Stats
		st.Wafers = len(w.parts) // not serialized
		st.PerIteration = PhaseCycles{}
		bnorm, rho, startIt = cp.BNorm, cp.Rho, cp.Iter
		w.maxDrift = cp.Stats.MaxARDrift
	} else {
		// Initialize: x = 0, r = r0 = p = b (zero initial guess).
		for p, pt := range w.parts {
			for i, t := range pt.m.Tiles {
				a := t.Arena
				for e := 0; e < n; e++ {
					v := bvec[w.sub.Index(p, i, e)]
					a.Set(w.off[vecX][p][i]+e, fp16.Zero)
					a.Set(w.off[vecR0][p][i]+e, v)
					a.Set(w.off[vecR][p][i]+e, v)
					a.Set(w.off[vecP][p][i]+e, v)
				}
			}
		}

		// ‖b‖²: a real dot + AllReduce on the machine, accounted as setup
		// (outside the per-iteration cycle model, like the other backends).
		var setup PhaseCycles
		bb, err := w.dot(&setup, vecR0, vecR0)
		if err != nil {
			return nil, st, err
		}
		st.SetupCycles = setup.Total()
		bnorm = math.Sqrt(bb)
		if bnorm == 0 {
			return nil, st, fmt.Errorf("kernels: zero right-hand side")
		}
		rho = bb // (r0, r0)
	}

	finish := func() ([]fp16.Float16, WSEStats, error) {
		st.MaxARDrift = w.maxDrift
		if st.Iterations > 0 {
			st.PerIteration = st.Cycles.dividedBy(int64(st.Iterations))
		}
		out := make([]fp16.Float16, len(bvec))
		for p, pt := range w.parts {
			for i, t := range pt.m.Tiles {
				for e := 0; e < n; e++ {
					out[w.sub.Index(p, i, e)] = t.Arena.At(w.off[vecX][p][i] + e)
				}
			}
		}
		return out, st, nil
	}

	for it := startIt; it < opts.MaxIter; it++ {
		// Cancellation unwinds here, between iterations: every fabric is
		// idle and every solver vector is consistent, so the caller may
		// reset, snapshot, or reuse the machines.
		if err := opts.CtxErr(); err != nil {
			return nil, st, err
		}
		if opts.Checkpoint != nil && opts.CheckpointEvery > 0 &&
			it > startIt && it%opts.CheckpointEvery == 0 {
			st.MaxARDrift = w.maxDrift
			blob, err := w.checkpoint(it, bnorm, rho, st)
			if err != nil {
				return nil, st, err
			}
			if err := opts.Checkpoint(blob); err != nil {
				return nil, st, fmt.Errorf("kernels: checkpoint callback: %w", err)
			}
		}
		st.Iterations = it + 1
		cyc := &st.Cycles

		// s := A p
		if err := w.sub.SpMV(w.off[vecP], w.off[vecS], cyc); err != nil {
			return nil, st, err
		}
		// α := (r0, r) / (r0, s)
		r0s, err := w.dot(cyc, vecR0, vecS)
		if err != nil {
			return nil, st, err
		}
		if r0s == 0 {
			st.Breakdown = "r0·Ap = 0"
			return finish()
		}
		alpha := rho / r0s

		// q := r − α s
		w.update(cyc, wse.OpFMA, -alpha, vecQ, vecS, vecR)

		// y := A q
		if err := w.sub.SpMV(w.off[vecQ], w.off[vecY], cyc); err != nil {
			return nil, st, err
		}
		// ω := (q, y) / (y, y)
		qy, err := w.dot(cyc, vecQ, vecY)
		if err != nil {
			return nil, st, err
		}
		yy, err := w.dot(cyc, vecY, vecY)
		if err != nil {
			return nil, st, err
		}
		// x := x + α p (+ ω q below)
		w.update(cyc, wse.OpAxpy, alpha, vecX, vecP, noVec)
		if yy == 0 {
			st.Breakdown = "y·y = 0"
			return finish()
		}
		omega := qy / yy
		w.update(cyc, wse.OpAxpy, omega, vecX, vecQ, noVec)
		// r := q − ω y
		w.update(cyc, wse.OpFMA, -omega, vecR, vecY, vecQ)

		rel := w.residualNorm() / bnorm
		st.History = append(st.History, rel)
		if opts.Progress != nil {
			opts.Progress(it+1, rel)
		}
		if opts.Tol > 0 && rel <= opts.Tol {
			st.Converged = true
			return finish()
		}

		// β := (α/ω) (r0, r_new)/(r0, r_old)
		rr, err := w.dot(cyc, vecR0, vecR)
		if err != nil {
			return nil, st, err
		}
		if rho == 0 || omega == 0 {
			st.Breakdown = "rho or omega = 0"
			return finish()
		}
		beta := (alpha / omega) * (rr / rho)
		rho = rr

		// p := r + β (p − ω s)  (two AXPYs)
		w.update(cyc, wse.OpAxpy, -omega, vecP, vecS, noVec)
		w.update(cyc, wse.OpXPAY, beta, vecP, vecR, noVec)
	}
	st.Converged = opts.Tol > 0 && len(st.History) > 0 && st.History[len(st.History)-1] <= opts.Tol
	return finish()
}

// dot runs the local mixed-precision dot (a, b) on every tile, then
// each machine's on-fabric AllReduce over its float32 partials. The
// tree-order sums are cycle-accounted and cross-checked (checkDrift),
// but the value returned to the solver is the exactly rounded combine
// of every tile's partial in canonical order, so every backend and
// every decomposition that sums the same partials exactly gets the same
// bits. It charges acc the slowest part's dot and AllReduce cycles and
// the substrate's per-dot combine.
func (w *BiCGStabEngine) dot(acc *PhaseCycles, a, b vec) (float64, error) {
	n := w.sub.PerTile
	var dotCyc, arCyc int64
	for p, pt := range w.parts {
		for i, t := range pt.m.Tiles {
			pt.partial[i] = 0
			pt.dotIn[i] = wse.DotMixed{
				A: tensor.Vec1D(w.off[a][p][i], n), B: tensor.Vec1D(w.off[b][p][i], n),
				Arena: t.Arena, Out: &pt.partial[i],
			}
			pt.phaseSlot[i][0] = &pt.dotIn[i]
		}
		dotCyc = max(dotCyc, pt.runPhase())
	}
	var exact float64
	for _, pt := range w.parts {
		res, err := pt.ar.Run(pt.partial, 1<<20)
		if err != nil {
			return 0, err
		}
		arCyc = max(arCyc, res.Cycles)
		exact = cluster.ExactSum32(pt.partial)
		if err := w.checkDrift(res.Sum, exact, pt.partial); err != nil {
			return 0, err
		}
	}
	if w.vals != nil {
		for k, o := range w.order {
			w.vals[k] = w.parts[o[0]].partial[o[1]]
		}
		exact = cluster.ExactSum32(w.vals)
	}
	acc.Dot += dotCyc
	acc.AllReduce += arCyc
	acc.Combine += w.sub.CombineCycles
	return exact, nil
}

// checkDrift cross-checks one machine's fabric AllReduce value against
// the exact sum of the same partials within the paper's AllReduce error
// model (allReduceTol): a violation means the simulated reduction
// tree is broken, not mere rounding.
func (w *BiCGStabEngine) checkDrift(fabricSum float32, exact float64, partial []float32) error {
	drift := math.Abs(float64(fabricSum) - exact)
	if drift == 0 {
		return nil
	}
	tol := allReduceTol(partial)
	switch {
	case math.IsNaN(drift) || math.IsInf(drift, 0) || tol == 0:
		// Non-finite data (overflowed partials): the error model does
		// not apply; the solver will surface the non-finite residual.
	case drift > tol:
		return fmt.Errorf(
			"kernels: fabric AllReduce %v drifted %.3g from exact sum %v (error-model bound %.3g)",
			fabricSum, drift, exact, tol)
	default:
		w.maxDrift = max(w.maxDrift, drift/tol)
	}
	return nil
}

// checkpoint snapshots the (idle, between-iterations) machine and
// packages it with the scalar recurrence state into an encoded
// WSECheckpoint.
func (w *BiCGStabEngine) checkpoint(it int, bnorm, rho float64, st WSEStats) ([]byte, error) {
	snap, err := w.parts[0].m.Snapshot()
	if err != nil {
		return nil, err
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		return nil, err
	}
	cp := &WSECheckpoint{Iter: it, BNorm: bnorm, Rho: rho, Stats: st, Machine: blob}
	return cp.Encode()
}

// update runs one AXPY-class instruction on every tile — dst = dst + s·a
// (OpAxpy), dst = a + s·dst (OpXPAY) or dst = s·a + b (OpFMA, the only
// kind that reads b) — rewriting each tile's reusable MemOp in place
// (whole-value assignment, which also rewinds it).
func (w *BiCGStabEngine) update(acc *PhaseCycles, kind wse.MemOpKind, s float64, dst, a, b vec) {
	n, s16 := w.sub.PerTile, fp16.FromFloat64(s)
	var cyc int64
	for p, pt := range w.parts {
		for i, t := range pt.m.Tiles {
			op := &pt.axpyIn[i]
			*op = wse.MemOp{Kind: kind, Arena: t.Arena, S: s16,
				Dst: tensor.Vec1D(w.off[dst][p][i], n), A: tensor.Vec1D(w.off[a][p][i], n)}
			if b != noVec {
				op.B = tensor.Vec1D(w.off[b][p][i], n)
			}
			pt.phaseSlot[i][0] = op
		}
		cyc = max(cyc, pt.runPhase())
	}
	acc.Axpy += cyc
}

// runPhase executes each tile's phaseSlot instruction as a task and
// steps the machine until all complete.
func (pt *part) runPhase() int64 {
	for i, t := range pt.m.Tiles {
		pt.phaseDone[i] = false
		pt.phaseTask[i].Instrs = pt.phaseSlot[i]
		t.Core.Activate(pt.phaseTask[i])
	}
	// Dot and AXPY phases are pure per-tile compute with statically
	// predictable duration; under EngineFastForward the machine skips
	// straight to the phase-end state (bit- and cycle-identically —
	// see wse.FastForwardTasks). Any ineligibility falls through to
	// cycle stepping.
	if pt.m.FastForwardEnabled() {
		if cycles, ok := pt.m.FastForwardTasks(pt.phaseTask); ok {
			return cycles
		}
	}
	cycles, err := pt.m.RunUntil(func() bool {
		for _, d := range pt.phaseDone {
			if !d {
				return false
			}
		}
		return true
	}, 1<<24)
	if err != nil {
		panic(err) // local instructions cannot wedge; a failure is a simulator bug
	}
	return cycles
}

// residualNorm computes ‖r‖₂ in float64, accumulating in canonical
// order (diagnostic only; decomposition-invariant).
func (w *BiCGStabEngine) residualNorm() float64 {
	n := w.sub.PerTile
	var s float64
	for _, o := range w.order {
		a := w.parts[o[0]].m.Tiles[o[1]].Arena
		off := w.off[vecR][o[0]][o[1]]
		for e := 0; e < n; e++ {
			v := a.At(off + e).Float64()
			s += v * v
		}
	}
	return math.Sqrt(s)
}
