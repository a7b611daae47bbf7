package kernels

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fp16"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// wseSolver is what the solver tests drive: any of the package's wafer
// BiCGStab solvers.
type wseSolver interface {
	Solve([]fp16.Float16, WSEOptions) ([]fp16.Float16, WSEStats, error)
}

// newHaloSolver builds the deterministic halo-exchange rendering of the
// 7-point solve: the star solver at the 7-point spec.
func newHaloSolver(m *wse.Machine, op *stencil.Op7Half) (*BiCGStabStarWSE, error) {
	return NewBiCGStabStarWSE(m, stencilc.Spec7Point(), stencil.HalfFromOp7(op))
}

// TestStarSolverMatchesHalo pins the star solver as a strict
// generalization: at widths {1,1,1} it is the 7-point halo solve, by
// either route to its operator — the fp16 7-point operator widened
// (stencil.HalfFromOp7, what the multiwafer parts and the halo tests
// load) or the float64 star operator narrowed (stencil.NewOpStarHalf,
// what core.SolveStar loads). The whole solve — solution bits, residual
// history, per-phase cycles, machine fingerprint — must match exactly.
func TestStarSolverMatchesHalo(t *testing.T) {
	m := stencil.Mesh{NX: 6, NY: 5, NZ: 8}
	op := stencil.RandomDiagDominant(m, 1.6, rand.New(rand.NewSource(3)))
	norm, _ := op.Normalize()
	rng := rand.New(rand.NewSource(9))
	bvec := make([]fp16.Float16, m.N())
	for i := range bvec {
		bvec[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	opts := WSEOptions{MaxIter: 8, Tol: 1e-4}

	mh := wse.New(wse.CS1(m.NX, m.NY))
	defer mh.Close()
	halo, err := newHaloSolver(mh, stencil.NewOp7Half(norm))
	if err != nil {
		t.Fatal(err)
	}
	xh, sth, err := halo.Solve(bvec, opts)
	if err != nil {
		t.Fatal(err)
	}

	ms := wse.New(wse.CS1(m.NX, m.NY))
	defer ms.Close()
	star, err := NewBiCGStabStarWSE(ms, stencilc.Spec7Point(), stencil.NewOpStarHalf(stencil.FromOp7(norm)))
	if err != nil {
		t.Fatal(err)
	}
	xs, sts, err := star.Solve(bvec, opts)
	if err != nil {
		t.Fatal(err)
	}

	if sth.Iterations != sts.Iterations {
		t.Fatalf("iterations: halo %d, star %d", sth.Iterations, sts.Iterations)
	}
	for i := range xh {
		if xh[i] != xs[i] {
			t.Fatalf("solution bit %d: halo %v, star %v", i, xh[i], xs[i])
		}
	}
	for i := range sth.History {
		if sth.History[i] != sts.History[i] {
			t.Fatalf("history %d: halo %v, star %v", i, sth.History[i], sts.History[i])
		}
	}
	if sth.Cycles != sts.Cycles {
		t.Fatalf("cycles: halo %+v, star %+v", sth.Cycles, sts.Cycles)
	}
	if fh, fs := mh.Fingerprint(), ms.Fingerprint(); fh != fs {
		t.Fatalf("fingerprints diverge: halo %#x, star %#x", fh, fs)
	}
}

// TestWaferStarBackendSeismic solves the 25-point seismic system on the
// wafer and on the float64 host through the solver.Backend seam: both must
// converge and agree to mixed-precision accuracy, and the warm second
// solve on the same backend must reproduce the first bit for bit.
func TestWaferStarBackendSeismic(t *testing.T) {
	m := stencil.Mesh{NX: 5, NY: 4, NZ: 6}
	norm, diag := stencil.Seismic25(m, 0.08).Normalize()
	rng := rand.New(rand.NewSource(17))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}
	b := make([]float64, m.N())
	stencil.Seismic25(m, 0.08).Apply(b, xe)
	sb := stencil.ScaleRHS(b, diag)
	zero := make([]float64, m.N())
	opts := solver.Options{MaxIter: 40, Tol: 1e-3, RecordHistory: true}

	xhost, sthost, err := solver.Host{}.Solve(norm, sb, zero, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sthost.Converged {
		t.Fatalf("host star solve did not converge: %+v", sthost)
	}

	mach := wse.New(wse.CS1(m.NX, m.NY))
	defer mach.Close()
	be := NewWaferStarBackend(mach, stencilc.SpecSeismic25())
	xw, stw, err := be.Solve(norm, sb, zero, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stw.Converged {
		t.Fatalf("wafer star solve did not converge: %+v", stw)
	}
	for i := range xhost {
		if math.Abs(xw[i]-xhost[i]) > 2e-2 {
			t.Fatalf("solution %d: wafer %g, host %g", i, xw[i], xhost[i])
		}
	}
	if rel := norm.ResidualNorm(xw, sb) / stencil.Norm2(sb); rel > 5e-3 {
		t.Fatalf("wafer true residual %g too large", rel)
	}

	// Warm reuse: identical problem, identical bits.
	xw2, stw2, err := be.Solve(norm, sb, zero, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stw2.Iterations != stw.Iterations {
		t.Fatalf("warm solve iterations %d, cold %d", stw2.Iterations, stw.Iterations)
	}
	for i := range xw {
		if xw2[i] != xw[i] {
			t.Fatalf("warm solve diverges at %d: %g vs %g", i, xw2[i], xw[i])
		}
	}
	if be.Solves != 2 {
		t.Fatalf("Solves = %d, want 2", be.Solves)
	}

	// The seam checks the system's size before touching the machine: a
	// short or nil x0 is refused, and the backend stays warm.
	for _, short := range [][]float64{nil, zero[:len(zero)-1]} {
		if _, _, err := be.Solve(norm, sb, short, opts); err == nil {
			t.Fatalf("x0 of length %d accepted for a system of %d", len(short), len(sb))
		}
	}
	if be.Solves != 2 {
		t.Fatalf("a refused solve was counted: Solves = %d", be.Solves)
	}
}

// TestStarSolverRejectsPartialFabric pins the full-mesh requirement:
// the solve's Dirichlet handling relies on never-written halos, which
// only holds when the mesh extent equals the fabric.
func TestStarSolverRejectsPartialFabric(t *testing.T) {
	m := stencil.Mesh{NX: 2, NY: 2, NZ: 4}
	st := stencil.NewOpStar(m, [3]int{1, 1, 1})
	for i := range st.C {
		st.C[i] = 1
	}
	mach := wse.New(wse.CS1(4, 4))
	defer mach.Close()
	if _, err := NewBiCGStabStarWSE(mach, stencilc.Spec7Point(), stencil.NewOpStarHalf(st)); err == nil {
		t.Fatal("NewBiCGStabStarWSE accepted a mesh smaller than the fabric")
	}
}

// TestStarSolveAllocsPerTile pins the host cost of a wafer solve as a
// count no neighbour can move: heap allocations per tile of building a
// machine and the 7-point star solver over the 3-D heat operator, then a
// fast-forward solve. Per-tile state lives in per-machine, per-program
// and per-fabric slabs, so the count grows with the fabric only through
// what is still per tile (closures, arena growth, stage lists, the
// AllReduce's line paths): 6.4 per tile. The iterations allocate nothing
// per tile: a fast-forward vector phase is a loop over the tiles' arenas
// and the exact dot combine does not allocate.
func TestStarSolveAllocsPerTile(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	allocs := func(nx, ny, iters int) float64 {
		mesh := stencil.Mesh{NX: nx, NY: ny, NZ: 4}
		norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
		op := stencil.NewOpStarHalf(norm)
		bh := make([]fp16.Float16, mesh.N())
		for i := range bh {
			bh[i] = fp16.FromFloat64(float64((i%23)-11) / 28)
		}
		var err error
		n := testing.AllocsPerRun(3, func() {
			m := wse.New(wse.Config{FabricW: nx, FabricH: ny, Engine: wse.EngineFastForward})
			s, e := NewBiCGStabStarWSE(m, stencilc.Spec7Point(), op)
			if e == nil {
				_, _, e = s.Solve(bh, WSEOptions{MaxIter: iters, Tol: 0})
			}
			if e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	small, large, longer := allocs(20, 15, 2), allocs(40, 30, 2), allocs(40, 30, 4)
	slope := (large - small) / (40*30 - 20*15)
	perIter := (longer - large) / (40 * 30)
	t.Logf("allocations: %.0f at 20×15, %.0f at 40×30 (%.2f per tile), %.0f with 4 iterations (%+.4f per tile)",
		small, large, slope, longer, perIter)
	if slope > 7 {
		t.Errorf("%.2f allocations per tile, want at most 7", slope)
	}
	if perIter >= 0.01 {
		t.Errorf("two more iterations add %.4f allocations per tile, want under 0.01", perIter)
	}
}

// TestStarSolveHeapPerTile pins what a built and solved wafer keeps, as
// live heap bytes per tile: the heap in use after a collection, with a
// 40×30 machine, its 7-point star solver and a two-iteration
// fast-forward solve still reachable, less the heap in use before.
// 3,684 bytes per tile today (3,573 before the cores' task,
// subscription and buffer-list carves grew to fit Listing 1); the
// ceiling leaves 7 % for the collector's and the allocator's own
// variation, which is a few bytes per tile between runs.
func TestStarSolveHeapPerTile(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow state")
	}
	const nx, ny = 40, 30
	mesh := stencil.Mesh{NX: nx, NY: ny, NZ: 4}
	norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
	op := stencil.NewOpStarHalf(norm)
	bh := make([]fp16.Float16, mesh.N())
	for i := range bh {
		bh[i] = fp16.FromFloat64(float64((i%23)-11) / 28)
	}
	inUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := inUse()
	m := wse.New(wse.Config{FabricW: nx, FabricH: ny, Engine: wse.EngineFastForward})
	s, err := NewBiCGStabStarWSE(m, stencilc.Spec7Point(), op)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(bh, WSEOptions{MaxIter: 2, Tol: 0}); err != nil {
		t.Fatal(err)
	}
	perTile := float64(inUse()-before) / (nx * ny)
	runtime.KeepAlive(s)
	t.Logf("live heap after build and solve: %.0f bytes per tile", perTile)
	if perTile > 3950 {
		t.Errorf("%.0f live heap bytes per tile, want at most 3950", perTile)
	}
}

// TestStarSolvePhasesJumped counts, phase kind by phase kind, how the
// two-iteration wafer solves the benchmark's workloads take run their
// fast-forwardable phases: 21 vector phases (the setup dot, then four
// dots and six updates per iteration), nine AllReduces (a row phase and
// a broadcast each) and, on the star solver, four compiled exchanges.
// Under the fast-forward engine every vector phase and broadcast is
// jumped, every row phase on an even width (an odd width contends and
// steps), and every exchange; under the sequential engine nothing is.
// Listing 1's SpMV3D is no jumpable exchange and counts nothing. The
// 2×1 multiwafer row is internal/multiwafer's TestClusterPhasesJumped.
func TestStarSolvePhasesJumped(t *testing.T) {
	listing1 := func(m *wse.Machine, mesh stencil.Mesh) wseSolver {
		norm, _ := stencil.MomentumLike(mesh, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1.0, 0.05).Normalize()
		s, err := NewBiCGStabWSE(m, stencil.NewOp7Half(norm))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	star := func(m *wse.Machine, mesh stencil.Mesh) wseSolver {
		norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
		s, err := NewBiCGStabStarWSE(m, stencilc.Spec7Point(), stencil.NewOpStarHalf(norm))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// phaseCounts is [vector, row, broadcast, exchange] × [jumped, stepped].
	type phaseCounts [4][2]int
	for _, tc := range []struct {
		name    string
		mesh    stencil.Mesh
		build   func(*wse.Machine, stencil.Mesh) wseSolver
		ff, seq phaseCounts
	}{
		{"listing1-deep-z", stencil.Mesh{NX: 6, NY: 6, NZ: 64}, listing1,
			phaseCounts{{21, 0}, {9, 0}, {9, 0}, {0, 0}}, phaseCounts{{0, 21}, {0, 9}, {0, 9}, {0, 0}}},
		{"listing1-wide-shallow", stencil.Mesh{NX: 24, NY: 16, NZ: 8}, listing1,
			phaseCounts{{21, 0}, {9, 0}, {9, 0}, {0, 0}}, phaseCounts{{0, 21}, {0, 9}, {0, 9}, {0, 0}}},
		{"star-40x30", stencil.Mesh{NX: 40, NY: 30, NZ: 4}, star,
			phaseCounts{{21, 0}, {9, 0}, {9, 0}, {4, 0}}, phaseCounts{{0, 21}, {0, 9}, {0, 9}, {0, 4}}},
		{"star-even-odd", stencil.Mesh{NX: 12, NY: 11, NZ: 4}, star,
			phaseCounts{{21, 0}, {9, 0}, {9, 0}, {4, 0}}, phaseCounts{{0, 21}, {0, 9}, {0, 9}, {0, 4}}},
		{"star-odd-odd", stencil.Mesh{NX: 11, NY: 9, NZ: 4}, star,
			phaseCounts{{21, 0}, {0, 9}, {9, 0}, {4, 0}}, phaseCounts{{0, 21}, {0, 9}, {0, 9}, {0, 4}}},
	} {
		bh := make([]fp16.Float16, tc.mesh.N())
		for i := range bh {
			bh[i] = fp16.FromFloat64(float64((i%23)-11) / 28)
		}
		for _, leg := range []struct {
			eng  wse.Engine
			want phaseCounts
		}{{wse.EngineFastForward, tc.ff}, {wse.EngineSequential, tc.seq}} {
			m := wse.New(wse.Config{FabricW: tc.mesh.NX, FabricH: tc.mesh.NY, Engine: leg.eng})
			if _, _, err := tc.build(m, tc.mesh).Solve(bh, WSEOptions{MaxIter: 2, Tol: 0}); err != nil {
				t.Fatal(err)
			}
			var got phaseCounts
			for k, ph := range []wse.Phase{wse.PhaseVector, wse.PhaseRow, wse.PhaseBroadcast, wse.PhaseExchange} {
				c := m.Phases(ph)
				got[k] = [2]int{c.Jumped, c.Stepped}
			}
			if got != leg.want {
				t.Errorf("%s %v: [vector, row, broadcast, exchange] × [jumped, stepped] = %v, want %v",
					tc.name, leg.eng, got, leg.want)
			}
			m.Close()
		}
	}
}
