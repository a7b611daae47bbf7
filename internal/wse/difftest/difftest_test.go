package difftest

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// leg is one column of the engine matrix: an engine and its fabric's
// shard count (Config.Workers; 0 is fast-forward's default).
type leg struct {
	e      wse.Engine
	shards int
}

// machine builds l's CS1-derived w×h machine. A fixed shard count also
// forces the parallel path, so the shard partition — and therefore the
// schedule it must prove equivalent under — is the same on every run
// and host.
func (l leg) machine(w, h int) *wse.Machine {
	cfg := wse.CS1(w, h)
	cfg.Engine, cfg.Workers = l.e, l.shards
	m := wse.New(cfg)
	if l.shards > 1 {
		fabric.ForceParallel(m.Fab)
	}
	return m
}

// halfVec returns a deterministic pseudo-random fp16 vector in (-1, 1).
func halfVec(n int, seed int64) []fp16.Float16 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]fp16.Float16, n)
	for i := range v {
		v[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	return v
}

// program3D compiles spec for op on a wafer exactly covering the mesh
// (so no host halo fill is needed: every off-fabric direction is also
// off-mesh and its term is skipped), loads src, and arms one
// application. Driving the armed program cycle by cycle instead of
// calling Run keeps the fast-forward engine on its stepping path — the
// analytic jump is covered by TestRunEndState at its phase boundary.
func program3D(t *testing.T, spec stencilc.Spec, op *stencil.OpStarHalf, src []fp16.Float16) func(l leg) *Instance {
	return func(l leg) *Instance {
		m := l.machine(op.M.NX, op.M.NY)
		p, err := stencilc.Compile3D(m, spec, op, 0, 0, 0)
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		loadIterate(p, src)
		p.Arm()
		return &Instance{M: m, Tick: p.Done}
	}
}

func loadIterate(p *stencilc.Program3D, src []fp16.Float16) {
	m := p.Mesh
	for i := 0; i < p.Tiles(); i++ {
		gx, gy := p.GlobalCoord(i)
		copy(p.Iterate(i), src[m.Index(gx, gy, 0):m.Index(gx, gy, 0)+m.NZ])
	}
}

// TestLockstepAllReduce locksteps the Figure 6 scalar AllReduce: host
// ramp actors over six colors of routed fabric, no core instructions —
// the engine-sensitive part is the fabric stepper and the rx-delivery
// wake plumbing.
func TestLockstepAllReduce(t *testing.T) {
	const w, h = 7, 5
	values := make([]float32, w*h)
	for i := range values {
		values[i] = float32(i%13)*0.25 - 1
	}
	var ars []*kernels.AllReduce
	Lockstep(t, 1<<16, func(l leg) *Instance {
		m := l.machine(w, h)
		ar, err := kernels.NewAllReduce(m, 0)
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		if err := ar.Begin(values); err != nil {
			m.Close()
			t.Fatal(err)
		}
		ars = append(ars, ar)
		return &Instance{M: m, Tick: ar.Tick}
	})
	want := ars[0].Result()
	for _, ar := range ars[1:] {
		got := ar.Result()
		if got.Sum != want.Sum || got.Cycles != want.Cycles {
			t.Errorf("allreduce result diverges: %+v vs %+v", got, want)
		}
	}
}

// program2D compiles spec for op on a wafer of b×b blocks exactly
// covering the mesh, loads src and arms one application.
func program2D(t *testing.T, spec stencilc.Spec, op *stencil.Op9, b int, src []fp16.Float16) func(l leg) *Instance {
	return func(l leg) *Instance {
		m := l.machine(op.M.NX/b, op.M.NY/b)
		p, err := stencilc.Compile2D(m, spec, op, b, 0)
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		p.LoadVector(src)
		p.Arm()
		return &Instance{M: m, Tick: p.Done}
	}
}

// TestLockstepSpec9Point locksteps the 2-D 9-point box program: the
// block-interior MemOp streams take the slice step, and the column/row
// exchanges interleave rx deliveries with them.
func TestLockstepSpec9Point(t *testing.T) {
	m2 := stencil.Mesh2D{NX: 12, NY: 8}
	op, _ := stencil.Random9(m2, 1.4, rand.New(rand.NewSource(29))).Normalize9()
	Lockstep(t, 1<<18, program2D(t, stencilc.Spec9Point(), op, 4, halfVec(m2.N(), 31)))
}

// TestLockstepSpec9PointShards locksteps the 2-D cavity's program on an
// 8×6 fabric with a fourth leg: fast-forward on five forced shards, of
// which shard 0 trades pushes only with shard 1 (its near window), so
// the shards of one cycle do not all neighbour each other.
func TestLockstepSpec9PointShards(t *testing.T) {
	m2 := stencil.Mesh2D{NX: 32, NY: 24}
	op, _ := stencil.Random9(m2, 1.4, rand.New(rand.NewSource(61))).Normalize9()
	Lockstep(t, 1<<18, program2D(t, stencilc.Spec9Point(), op, 4, halfVec(m2.N(), 67)),
		leg{e: wse.EngineFastForward, shards: 5})
}

// TestLockstepListing1 locksteps the paper's kernel, Listing 1
// (kernels.NewSpMV3D): the Figure 5 broadcast, five multiplier threads
// into depth-20 FIFOs, a sum task that adds in arrival order and the
// two-way-barrier completion tree. Arm arms the tiles, each shard's on
// that shard's goroutine; the harness steps two applications, the
// second from the state the first leaves, and each must be Done by the
// time the machine goes idle.
func TestLockstepListing1(t *testing.T) {
	m3 := stencil.Mesh{NX: 6, NY: 5, NZ: 32}
	norm, _ := stencil.RandomDiagDominant(m3, 1.5, rand.New(rand.NewSource(53))).Normalize()
	op := stencil.NewOp7Half(norm)
	src := halfVec(m3.N(), 59)
	Lockstep(t, 1<<18, func(l leg) *Instance {
		m := l.machine(m3.NX, m3.NY)
		p, err := kernels.NewSpMV3D(m, op)
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		p.LoadVector(src)
		apps := 0
		return &Instance{M: m, Tick: func() bool {
			if !m.AllIdle() {
				return false
			}
			if apps > 0 && !p.Done() {
				t.Fatalf("Listing 1 went idle before application %d completed", apps)
			}
			if apps == 2 {
				return true
			}
			apps++
			p.Arm()
			return false
		}}
	})
}

func TestLockstepSpec7Point(t *testing.T) {
	m3 := stencil.Mesh{NX: 6, NY: 5, NZ: 6}
	norm, _ := stencil.Heat3D(m3, 0.1, stencil.Dirichlet).Normalize()
	Lockstep(t, 1<<18, program3D(t, stencilc.Spec7Point(), stencil.NewOpStarHalf(norm), halfVec(m3.N(), 37)))
}

// TestLockstepSeismic25 locksteps the 25-point seismic star: four
// relay rounds per direction on a fabric narrower than the relay
// width, the heaviest exchange schedule the compiler emits.
func TestLockstepSeismic25(t *testing.T) {
	m3 := stencil.Mesh{NX: 6, NY: 4, NZ: 8}
	norm, _ := stencil.Seismic25(m3, 0.08).Normalize()
	Lockstep(t, 1<<18, program3D(t, stencilc.SpecSeismic25(), stencil.NewOpStarHalf(norm), halfVec(m3.N(), 41)))
}

// TestLockstepHeat locksteps the heat program with the fused residual
// reduction (ReduceSumSq), covering the DotMixed instruction alongside
// the MemOp streams.
func TestLockstepHeat(t *testing.T) {
	m3 := stencil.Mesh{NX: 5, NY: 4, NZ: 6}
	norm, _ := stencil.Heat3D(m3, 0.12, stencil.Dirichlet).Normalize()
	Lockstep(t, 1<<18, program3D(t, stencilc.SpecHeat3D(), stencil.NewOpStarHalf(norm), halfVec(m3.N(), 43)))
}

// TestRunEndState pins the fast-forward engine at the only boundary
// where it is observable: a Program3D.Run or AllReduce.Run that takes
// an analytic jump must land on exactly the state the sequential engine
// reaches by cycle simulation — same cycle count, same result bits,
// same partials, same machine fingerprint. Each case applies the
// program and reduces a value per tile, twice, as a solve alternates
// them: the exchange replay is seeded by the rotation counters and hot
// set the AllReduce's row-phase jump wrote, and the other way round.
// The odd-width wafers keep the AllReduce on its stepping path; the
// even × odd ones (the shape of the paper's 602×595) jump the row phase
// and then cycle-simulate a column phase with arbitration contention.
func TestRunEndState(t *testing.T) {
	cases := []struct {
		name string
		spec stencilc.Spec
		mesh stencil.Mesh
	}{
		{"spec7", stencilc.Spec7Point(), stencil.Mesh{NX: 6, NY: 5, NZ: 6}},
		{"seismic25", stencilc.SpecSeismic25(), stencil.Mesh{NX: 6, NY: 4, NZ: 8}},
		{"heat", stencilc.SpecHeat3D(), stencil.Mesh{NX: 5, NY: 4, NZ: 6}},
		{"spec7-even-odd", stencilc.Spec7Point(), stencil.Mesh{NX: 12, NY: 9, NZ: 6}},
		{"heat-even-odd", stencilc.SpecHeat3D(), stencil.Mesh{NX: 8, NY: 7, NZ: 6}},
	}
	type endState struct {
		cycles []int64 // program, allreduce, program, allreduce
		sums   []float32
		res    []fp16.Float16
		part   []float32
		fp     uint64
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			norm, _ := stencil.Seismic25(tc.mesh, 0.08).Normalize()
			if tc.spec.Widths[0] == 1 {
				norm, _ = stencil.Heat3D(tc.mesh, 0.1, stencil.Dirichlet).Normalize()
			}
			op := stencil.NewOpStarHalf(norm)
			src := halfVec(tc.mesh.N(), 47)
			run := func(e wse.Engine) endState {
				m := leg{e: e}.machine(tc.mesh.NX, tc.mesh.NY)
				defer m.Close()
				p, err := stencilc.Compile3D(m, tc.spec, op, 0, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				ar, err := kernels.NewAllReduce(m, stencilc.NumExchangeColors)
				if err != nil {
					t.Fatal(err)
				}
				var st endState
				vals := make([]float32, p.Tiles())
				for round := 0; round < 2; round++ {
					loadIterate(p, src)
					cycles, err := p.Run(1 << 20)
					if err != nil {
						t.Fatal(err)
					}
					for i := range vals {
						vals[i] = float32(p.Result(i)[0].Float64()) * float32(i%7+1)
					}
					red, err := ar.Run(vals, 1<<20)
					if err != nil {
						t.Fatal(err)
					}
					st.cycles = append(st.cycles, cycles, red.Cycles)
					st.sums = append(st.sums, red.Sum)
				}
				for i := 0; i < p.Tiles(); i++ {
					st.res = append(st.res, p.Result(i)...)
				}
				st.part = append(st.part, p.Partials()...)
				st.fp = m.Fingerprint()
				return st
			}
			seq, ff := run(wse.EngineSequential), run(wse.EngineFastForward)
			for i := range seq.cycles {
				if seq.cycles[i] != ff.cycles[i] {
					t.Errorf("phase %d cycles diverge: seq %d, ff %d", i, seq.cycles[i], ff.cycles[i])
				}
			}
			for i := range seq.sums {
				if seq.sums[i] != ff.sums[i] {
					t.Errorf("allreduce %d sum diverges: seq %v, ff %v", i, seq.sums[i], ff.sums[i])
				}
			}
			for i := range seq.res {
				if seq.res[i] != ff.res[i] {
					t.Fatalf("result[%d] bits diverge: seq %#04x, ff %#04x", i, uint16(seq.res[i]), uint16(ff.res[i]))
				}
			}
			for i := range seq.part {
				if seq.part[i] != ff.part[i] {
					t.Errorf("partial[%d] diverges: seq %v, ff %v", i, seq.part[i], ff.part[i])
				}
			}
			if seq.fp != ff.fp {
				t.Errorf("fingerprints diverge: seq %#x, ff %#x", seq.fp, ff.fp)
			}
		})
	}
}

// Instance is one engine's machine under the harness plus the
// host-side driver of its workload.
type Instance struct {
	M *wse.Machine
	// Tick runs the workload's host actors for the current cycle
	// (arming retries, ramp injection and drains) and reports whether
	// the workload has completed. The harness calls it once per cycle
	// and steps the machine after every non-final Tick, the same
	// Tick/Step cadence the kernels' own run loops use.
	Tick func() bool
}

// engines is the full engine matrix the lockstep tables run: the
// reference, fast-forward on its default fabric, and fast-forward on
// three forced shards. Lockstep drives Machine.Step, which takes no
// jumps, so the last two check stepping on one and on several shards.
var engines = []leg{
	{e: wse.EngineSequential},
	{e: wse.EngineFastForward},
	{e: wse.EngineFastForward, shards: 3},
}

// Lockstep builds one Instance per engine, and one per extra leg, and
// drives them all in per-cycle fingerprint lockstep until every
// workload reports completion on the same cycle. Any divergence —
// fingerprint, completion cycle, or final idleness — fails the test at
// the first cycle it shows.
func Lockstep(t *testing.T, maxCycles int64, build func(l leg) *Instance, extra ...leg) {
	t.Helper()
	engines := append(engines[:len(engines):len(engines)], extra...)
	insts := make([]*Instance, len(engines))
	for i, e := range engines {
		insts[i] = build(e)
		defer insts[i].M.Close()
	}
	compare := func(when string) {
		ref := insts[0].M.Fingerprint()
		for i := 1; i < len(insts); i++ {
			if fp := insts[i].M.Fingerprint(); fp != ref {
				t.Fatalf("cycle %d (%s): %+v fingerprint %#x, %+v fingerprint %#x",
					insts[0].M.Cycle(), when, engines[0], ref, engines[i], fp)
			}
		}
	}
	compare("before first cycle")
	for {
		done := insts[0].Tick()
		for i := 1; i < len(insts); i++ {
			if d := insts[i].Tick(); d != done {
				t.Fatalf("cycle %d: completion diverges: %+v done=%v, %+v done=%v",
					insts[0].M.Cycle(), engines[0], done, engines[i], d)
			}
		}
		if done {
			break
		}
		if insts[0].M.Cycle() >= maxCycles {
			t.Fatalf("workload did not complete in %d cycles", maxCycles)
		}
		for _, in := range insts {
			in.M.Step()
		}
		compare("after step")
	}
	compare("at completion")
	if insts[0].M.Cycle() == 0 {
		t.Fatal("workload completed without stepping a single cycle — the builder armed nothing")
	}
	for i, in := range insts {
		if !in.M.AllIdle() {
			t.Errorf("%+v machine not idle at completion", engines[i])
		}
	}
}
