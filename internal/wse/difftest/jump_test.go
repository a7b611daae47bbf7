package difftest

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/tensor"
	"repro/internal/wse"
)

// The phases FuzzJumpMatchesStep jumps.
const (
	jumpApply     = iota // wse.VectorPhase.Apply
	jumpDot              // wse.VectorPhase.Dot
	jumpAllReduce        // kernels.AllReduce.Run: its row phase and broadcast
	jumpProgram3D        // stencilc.Program3D.Run: one application
	numJumpKinds
)

var jumpKindNames = [numJumpKinds]string{"apply", "dot", "allreduce", "program3d"}

// The starting states FuzzJumpMatchesStep draws: one eligible, the rest
// adversarial. The first clause of each comment is the state, the
// second the gate that must reject it.
const (
	stEligible   = iota // every core idle and unlisted, the fabric empty
	stInFlight          // a word circling forever on an unrelated color: router queues
	stThread            // a thread running a long copy on one core: live threads
	stRunning           // another task mid-instruction on one core: current task
	stPickable          // another task activated on one core: pickable task
	stSubRx             // a halo word waiting at a ramp on its subscribed color: subscribed rx
	stStageRx           // an AllReduce word left in a receive buffer: the listed colors
	stStreamBuf         // halo elements left in a subscribed stream buffer: stream buffers
	stQueueDepth        // depth-2 router queues: AllReduce and Program3D default depths
	stSIMD              // an 8-lane datapath: Program3D's SIMD 4
	stListed            // every core still listed after compilation: Program3D's empty worklists
	numJumpStates
)

var jumpStateNames = [numJumpStates]string{"eligible", "in-flight", "thread", "running", "pickable",
	"sub-rx", "stage-rx", "streambuf", "queue-depth", "simd", "listed"}

// jumpExpected[state] says, per kind, whether the fast-forward engine
// jumps the phase from that state: the gates' documented decisions. A
// VectorPhase needs only a Settled machine; an AllReduce also default
// queue depths and its colors' receive buffers empty (its row phase
// further an even width of at least 4); a Program3D also the SIMD-4
// datapath, default depths and empty worklists.
var jumpExpected = [numJumpStates][numJumpKinds]bool{
	stEligible:   {true, true, true, true},
	stStageRx:    {true, true, false, true},
	stQueueDepth: {true, true, false, false},
	stSIMD:       {true, true, true, false},
	stListed:     {true, true, true, false},
}

// arBase is the first of the AllReduce's six colors, after the
// exchange's four; hostile is the unrelated color of stInFlight.
const (
	arBase  = fabric.Color(stencilc.NumExchangeColors)
	hostile = fabric.Color(fabric.MaxColors - 1)
)

// jumpRig is a small wafer built as a solve builds one: a compiled
// 7-point program, an AllReduce and a vector phase, plus three
// Z-element operand vectors per tile and a scratch column for the
// hostile copies.
type jumpRig struct {
	m       *wse.Machine
	p       *stencilc.Program3D
	ar      *kernels.AllReduce
	v       *wse.VectorPhase
	off     [3][]int
	scratch []int
	out     []float32
	z       int
}

// scratchLen is the hostile copies' length: long enough to outlast
// every phase the rigs run.
const scratchLen = 512

// newJumpRig builds the rig's machine under engine e; shards > 1 puts
// its fabric on that many shards with the parallel path forced.
func newJumpRig(t *testing.T, e wse.Engine, shards, state, w, h, z int, seed int64) *jumpRig {
	cfg := wse.CS1(w, h)
	cfg.Engine, cfg.Workers = e, shards
	switch state {
	case stQueueDepth:
		cfg.QueueDepth = 2
	case stSIMD:
		cfg.SIMDWidth = 8
	}
	mesh := stencil.Mesh{NX: w, NY: h, NZ: z}
	norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
	r := &jumpRig{m: wse.New(cfg), z: z, out: make([]float32, w*h)}
	if shards > 1 {
		fabric.ForceParallel(r.m.Fab)
	}
	var err error
	if r.p, err = stencilc.Compile3D(r.m, stencilc.Spec7Point(), stencil.NewOpStarHalf(norm), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if r.ar, err = kernels.NewAllReduce(r.m, arBase); err != nil {
		t.Fatal(err)
	}
	r.v = wse.NewVectorPhase(r.m)
	vals := halfVec(3*w*h*z, seed)
	for k := range r.off {
		r.off[k] = make([]int, w*h)
		for i, tl := range r.m.Tiles {
			r.off[k][i] = tl.Arena.MustAlloc(fmt.Sprint("v", k), z)
			copy(tl.Arena.Slice(r.off[k][i], z), vals[(k*w*h+i)*z:])
		}
	}
	r.scratch = make([]int, w*h)
	for i, tl := range r.m.Tiles {
		r.scratch[i] = tl.Arena.MustAlloc("scratch", scratchLen)
	}
	loadIterate(r.p, halfVec(mesh.N(), seed+1))
	return r
}

// copyOn is a long arena copy on tile i, for the hostile task and
// thread.
func (r *jumpRig) copyOn(i int) *wse.MemOp {
	a := r.m.Tiles[i].Arena
	return &wse.MemOp{Kind: wse.OpCopy, Arena: a, Dst: tensor.Vec1D(r.scratch[i], scratchLen), A: tensor.Vec1D(r.scratch[i], scratchLen)}
}

// prepare puts the machine in the drawn state; tile i (with an east
// neighbour for the halo states) carries the hostile core state. Every
// state but stListed starts by stepping until no core is listed, as a
// solve's first phase leaves the machine.
func (r *jumpRig) prepare(t *testing.T, state, i int) {
	f := r.m.Fab
	w, h := f.W, f.H
	if state != stListed {
		if _, err := r.m.RunUntil(r.m.AllIdle, 1<<12); err != nil {
			t.Fatal(err)
		}
	}
	switch state {
	case stInFlight:
		for _, hop := range []struct {
			x, y    int
			in, out fabric.Port
		}{
			{1, 0, fabric.Ramp, fabric.West}, {0, 0, fabric.East, fabric.South},
			{0, 1, fabric.North, fabric.East}, {1, 1, fabric.West, fabric.North}, {1, 0, fabric.South, fabric.West},
		} {
			f.SetRoute(fabric.Coord{X: hop.x, Y: hop.y}, hop.in, hostile, fabric.Mask(hop.out))
		}
		f.Send(fabric.Coord{X: 1, Y: 0}, fabric.WordF32(hostile, 7))
	case stThread:
		r.m.Tiles[i].Core.LaunchThread(wse.MaxThreads-1, "hostile", r.copyOn(i), nil)
	case stRunning, stPickable:
		c := r.m.Tiles[i].Core
		c.Activate(c.AddTask(&wse.Task{Name: "hostile", Instrs: []wse.Instr{r.copyOn(i)}}))
		if state == stRunning {
			r.m.Step()
		}
	case stSubRx, stStreamBuf:
		// Tile i's eastbound halo word lands at its east neighbour's
		// ramp; stepping that core once moves it into the stream buffer.
		f.Send(f.CoordOf(i), fabric.WordF32(fabric.Color(stencilc.ColEast), 3))
		r.drain(t)
		if state == stStreamBuf {
			r.m.Step()
		}
	case stStageRx:
		// A blue partial at the row's sink when the row has senders,
		// else the root's broadcast word at every tile.
		if w >= 3 {
			f.Send(fabric.Coord{X: 0, Y: 0}, fabric.WordF32(arBase, 5))
		} else {
			f.Send(fabric.Coord{X: (w - 1) / 2, Y: (h - 1) / 2}, fabric.WordF32(arBase+5, 5))
		}
		r.drain(t)
	}
}

func (r *jumpRig) drain(t *testing.T) {
	if _, ok := r.m.Fab.Drain(1 << 10); !ok {
		t.Fatal("fabric did not drain")
	}
}

// run runs one phase of kind and returns what it reports: its cycles
// and its per-tile outputs.
func (r *jumpRig) run(t *testing.T, kind int) (int64, []float32) {
	switch kind {
	case jumpApply:
		return r.v.Apply(wse.OpAxpy, fp16.FromFloat64(-0.375), r.off[0], r.off[1], nil, r.z), nil
	case jumpDot:
		return r.v.Dot(r.off[1], r.off[2], r.z, r.out), slices.Clone(r.out)
	case jumpAllReduce:
		vals := make([]float32, len(r.m.Tiles))
		for i := range vals {
			vals[i] = float32(i%11)*0.125 - 0.5
		}
		res, err := r.ar.Run(vals, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, append(slices.Clone(res.PerTile), res.Sum)
	}
	cycles, err := r.p.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return cycles, slices.Clone(r.p.Partials())
}

// record returns the machine's record of the phase kinds kind runs.
func (r *jumpRig) record(kind int) []wse.PhaseCount {
	switch kind {
	case jumpAllReduce:
		return []wse.PhaseCount{r.m.Phases(wse.PhaseRow), r.m.Phases(wse.PhaseBroadcast)}
	case jumpProgram3D:
		return []wse.PhaseCount{r.m.Phases(wse.PhaseExchange)}
	}
	return []wse.PhaseCount{r.m.Phases(wse.PhaseVector)}
}

// FuzzJumpMatchesStep starts every fast-forward jump — a vector apply,
// a vector dot, an AllReduce (row phase and broadcast) and a Program3D
// application — from an eligible or an adversarial machine state, on a
// fuzzed fabric shape, Z and data, and runs the phase under
// EngineSequential and under EngineFastForward twice: on the default
// shards and on three with the parallel path forced, so every jump is
// held exact on a sharded fabric (ApplyReplay and the hot marks across
// per-shard hot lists included). The record must say nothing jumped
// under sequential and one phase per kind under every run, fast-forward
// must take exactly the jumps jumpExpected lists,
// and, jumped or not, the phase's cycles and outputs, the machine cycle,
// fingerprint and every arena word must equal the stepped run's at the
// phase end, and the fingerprint again after both step on.
//
// The seeds are every state of every kind. Deleting any clause of
// wse.Machine.Settled or any gate's shape check (each checked on a
// scratch copy) makes plain `go test ./internal/wse/difftest` fail on
// the seeds listed: "state" is a phase-end or later divergence,
// "decision" a jump jumpExpected does not list, "record" a jump under
// sequential, "panic" an internal check of the jump.
//
//	clause deleted                          failing seeds (assertion)
//	Settled: engine is fast-forward         every seed that jumps under fast-forward (record)
//	Settled: router queues empty            in-flight × apply (panic: AdvanceIdle on a busy fabric)
//	Settled: no current task                running × apply, dot (state); × allreduce (decision)
//	Settled: no live thread                 thread × apply, dot (state); × allreduce (decision)
//	Settled: no pickable task               pickable × apply, dot (state); × allreduce (decision)
//	Settled: no subscribed rx word          sub-rx × apply, dot (state); × allreduce (decision)
//	Settled: no stream-buffer element       streambuf × program3d (state); × apply, dot, allreduce (decision)
//	  (or Core.step's streamed flag)        the same seeds
//	Settled: listed colors' rx buffers      stage-rx × allreduce (state)
//	ffGate: default queue depths            queue-depth × allreduce (decision)
//	ffEligible: SIMD width 4                simd × program3d (panic: buildFF's perfmodel cross-check)
//	ffEligible: default queue depths        queue-depth × program3d (decision)
//	ffEligible: empty worklists (AllIdle)   listed × program3d (decision)
//
// The AllReduce steps only the fabric, so Settled's core clauses change
// none of its results; a Program3D's busy core is a listed one, which
// AllIdle rejects already.
func FuzzJumpMatchesStep(f *testing.F) {
	for kind := 0; kind < numJumpKinds; kind++ {
		for state := 0; state < numJumpStates; state++ {
			// Z = 6 or 10 (seed%4 = 1 or 3), so a phase's last cycle leaves
			// lanes for a hostile thread.
			f.Add(uint8(kind), uint8(state), uint8(4+kind), uint8(3+state%3), int64(4*(kind*numJumpStates+state)+1+2*(state%2)))
		}
	}
	f.Fuzz(func(t *testing.T, kind, state, fw, fh uint8, seed int64) {
		k, st := int(kind)%numJumpKinds, int(state)%numJumpStates
		w, h := 2+int(fw)%7, 2+int(fh)%6 // the circling word needs 2×2
		z := 4 + 2*int(uint64(seed)%4)
		i := int(uint64(seed)/4) % (w * h)
		if i%w == w-1 {
			i-- // the halo states send east
		}
		name := fmt.Sprintf("%s from %s on %d×%d×%d", jumpKindNames[k], jumpStateNames[st], w, h, z)

		// end is a run's account at the phase end, plus the fingerprint
		// once both machines have stepped on past every hostile copy —
		// a jump that dropped a busy core from its worklist shows there.
		type end struct {
			cycles, clock int64
			outs          []float32
			fp, later     uint64
			arenas        [][]fp16.Float16
			record        []wse.PhaseCount
		}
		run := func(e wse.Engine, shards int) end {
			r := newJumpRig(t, e, shards, st, w, h, z, seed)
			defer r.m.Close()
			r.prepare(t, st, i)
			cycles, outs := r.run(t, k)
			out := end{cycles: cycles, clock: r.m.Cycle(), outs: outs, fp: r.m.Fingerprint(), record: r.record(k)}
			for _, tl := range r.m.Tiles {
				out.arenas = append(out.arenas, slices.Clone(tl.Arena.Slice(0, tl.Arena.Used()/2))) // Used is in bytes
			}
			for c := 0; c < scratchLen/2; c++ {
				r.m.Step()
			}
			out.later = r.m.Fingerprint()
			return out
		}
		seq := run(wse.EngineSequential, 0)
		for _, shards := range []int{0, 3} {
			ff := run(wse.EngineFastForward, shards)
			name := fmt.Sprintf("%s, fast-forward shards %d", name, shards)
			for j := range seq.record {
				s, fr := seq.record[j], ff.record[j]
				if s.Jumped != 0 {
					t.Errorf("%s: sequential engine jumped %d phases", name, s.Jumped)
				}
				if s.Jumped+s.Stepped != fr.Jumped+fr.Stepped || s.Jumped+s.Stepped != 1 {
					t.Errorf("%s: record %+v under sequential, %+v under fast-forward; want one phase each", name, s, fr)
				}
				want := jumpExpected[st][k]
				if k == jumpAllReduce && j == 0 {
					want = want && w >= 4 && w%2 == 0 // the row phase
				}
				if (fr.Jumped == 1) != want {
					t.Errorf("%s: phase %d of the kind jumped %v under fast-forward, want %v", name, j, fr.Jumped == 1, want)
				}
			}
			if seq.cycles != ff.cycles || seq.clock != ff.clock || seq.fp != ff.fp {
				t.Fatalf("%s: sequential %d cycles (clock %d, fingerprint %#x), fast-forward %d (clock %d, fingerprint %#x)",
					name, seq.cycles, seq.clock, seq.fp, ff.cycles, ff.clock, ff.fp)
			}
			if !slices.EqualFunc(seq.outs, ff.outs, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
				t.Fatalf("%s: outputs diverge: sequential %v, fast-forward %v", name, seq.outs, ff.outs)
			}
			for j := range seq.arenas {
				if !slices.Equal(seq.arenas[j], ff.arenas[j]) {
					t.Fatalf("%s: tile %d arenas diverge", name, j)
				}
			}
			if seq.later != ff.later {
				t.Fatalf("%s: fingerprints diverge %d cycles after the phase: sequential %#x, fast-forward %#x",
					name, scratchLen/2, seq.later, ff.later)
			}
		}
	})
}
