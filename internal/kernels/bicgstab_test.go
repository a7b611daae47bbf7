package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fp16"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// wseProblem builds a machine, solver and test system b = A·xe.
func wseProblem(t *testing.T, nx, ny, nz int, seed int64) (*BiCGStabWSE, *stencil.Op7, []float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1.0, 0.05)
	norm, diag := op.Normalize()
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}
	b64 := make([]float64, m.N())
	op.Apply(b64, xe)
	sb := stencil.ScaleRHS(b64, diag)

	mach := wse.New(wse.CS1(nx, ny))
	w, err := NewBiCGStabWSE(mach, stencil.NewOp7Half(norm))
	if err != nil {
		t.Fatal(err)
	}
	return w, norm, sb, xe
}

func TestBiCGStabWSESolves(t *testing.T) {
	w, norm, sb, xe := wseProblem(t, 4, 4, 8, 21)
	b16 := fp16.FromFloat64Slice(sb)
	x, st, err := w.Solve(b16, WSEOptions{MaxIter: 20, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wafer solve: %d iterations, final residual %.3g, breakdown %q",
		st.Iterations, finalOf(st.History), st.Breakdown)
	rel := SolutionResidual(norm, x, sb)
	if rel > 2e-2 {
		t.Errorf("true residual %g too large for a converged mixed solve", rel)
	}
	// The solution should be near xe at fp16 resolution.
	worst := 0.0
	for i := range xe {
		worst = math.Max(worst, math.Abs(x[i].Float64()-xe[i]))
	}
	if worst > 0.05 {
		t.Errorf("worst-case solution error %g", worst)
	}
}

func finalOf(h []float64) float64 {
	if len(h) == 0 {
		return math.NaN()
	}
	return h[len(h)-1]
}

func TestBiCGStabWSEMatchesSequentialMixed(t *testing.T) {
	// The wafer execution differs from the sequential mixed-precision
	// solver only in accumulation order (nondeterministic SpMV sums,
	// tree-reduced dots), so residual histories must track each other.
	w, norm, sb, _ := wseProblem(t, 4, 3, 6, 5)
	b16 := fp16.FromFloat64Slice(sb)
	_, st, err := w.Solve(b16, WSEOptions{MaxIter: 6})
	if err != nil {
		t.Fatal(err)
	}

	ctx := solver.NewMixed()
	a := ctx.NewOperator(norm)
	bv := ctx.NewVector(len(sb))
	for i, v := range sb {
		bv.Set(i, v)
	}
	xv := ctx.NewVector(len(sb))
	ref, err := solver.BiCGStab(ctx, a, bv, xv, solver.Options{MaxIter: 6, Tol: 0, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	n := len(st.History)
	if len(ref.History) < n {
		n = len(ref.History)
	}
	if n == 0 {
		t.Fatal("no overlapping history")
	}
	for i := 0; i < n; i++ {
		a, b := st.History[i], ref.History[i]
		if a == 0 || b == 0 {
			continue
		}
		if r := a / b; r > 4 || r < 0.25 {
			t.Errorf("iteration %d: wafer residual %g vs sequential %g", i+1, a, b)
		}
	}
}

func TestBiCGStabWSECycleBreakdown(t *testing.T) {
	// SpMV must dominate the per-iteration budget on a fabric where the
	// diameter is small relative to Z, and every phase must be nonzero.
	w, _, sb, _ := wseProblem(t, 4, 4, 32, 9)
	b16 := fp16.FromFloat64Slice(sb)
	_, st, err := w.Solve(b16, WSEOptions{MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	pc := st.PerIteration
	t.Logf("per-iteration cycles: spmv=%d dot=%d allreduce=%d axpy=%d total=%d",
		pc.SpMV, pc.Dot, pc.AllReduce, pc.Axpy, pc.Total())
	if pc.SpMV == 0 || pc.Dot == 0 || pc.AllReduce == 0 || pc.Axpy == 0 {
		t.Fatalf("all phases must be nonzero: %+v", pc)
	}
	if pc.SpMV < pc.Axpy {
		t.Errorf("SpMV (%d) should outweigh AXPY (%d): two applications moving 5 streams", pc.SpMV, pc.Axpy)
	}
	// Dots: 4 dots × Z/2 cycles at 2 FMAC/cycle, plus task latency.
	z := int64(32)
	if pc.Dot < 4*z/2 || pc.Dot > 4*z*4 {
		t.Errorf("dot cycles %d far from 4·Z/2 = %d", pc.Dot, 4*z/2)
	}
}

func TestBiCGStabWSEZeroRHS(t *testing.T) {
	w, _, _, _ := wseProblem(t, 2, 2, 4, 3)
	b := make([]fp16.Float16, w.Mesh.N())
	if _, _, err := w.Solve(b, WSEOptions{MaxIter: 2}); err == nil {
		t.Error("zero rhs should be rejected")
	}
}

func TestBiCGStabWSEMemoryAtPaperScale(t *testing.T) {
	// At Z = 1536 the full solver state must fit the 48 KB tile budget —
	// the paper's memory-capacity argument. One tile suffices to check
	// the arithmetic.
	m := stencil.Mesh{NX: 1, NY: 1, NZ: 1536}
	norm, _ := stencil.Poisson(m, 1).Normalize()
	mach := wse.New(wse.CS1(1, 1))
	w, err := NewBiCGStabWSE(mach, stencil.NewOp7Half(norm))
	if err != nil {
		t.Fatalf("paper-scale Z does not fit the tile: %v", err)
	}
	used := mach.Tiles[0].Arena.Used()
	if used > 48*1024 {
		t.Errorf("arena used %d bytes > 48KB", used)
	}
	t.Logf("tile memory at Z=1536: %d bytes of %d", used, 48*1024)
	_ = w
}

// TestExactCombineMatchesExactSum cross-checks the engine's two-level
// dot on a hand-built two-machine substrate against
// cluster.ExactSum32 directly: (b, b) must equal the exactly rounded
// sum of the per-tile DotMixed partials computed on the host in global
// order, whatever the cut — and each dot is charged the substrate's
// combine cycles once.
func TestExactCombineMatchesExactSum(t *testing.T) {
	m := stencil.Mesh{NX: 4, NY: 4, NZ: 8}
	b := testRHS(m, 13)
	// Host image of the per-tile partials, in global order.
	var partials []float32
	for gy := 0; gy < m.NY; gy++ {
		for gx := 0; gx < m.NX; gx++ {
			var acc float32
			for z := 0; z < m.NZ; z++ {
				v := b[m.Index(gx, gy, z)]
				acc = fp16.MixedFMAC(acc, v, v)
			}
			partials = append(partials, acc)
		}
	}
	want := cluster.ExactSum32(partials)

	// Two 2×4 machines side by side in x; the operator is the identity
	// (dst = src), which is all a dot needs from the SpMV.
	machines := []*wse.Machine{wse.New(wse.CS1(2, 4)), wse.New(wse.CS1(2, 4))}
	for _, mach := range machines {
		defer mach.Close()
	}
	var order [][2]int32
	for gy := 0; gy < m.NY; gy++ {
		for gx := 0; gx < m.NX; gx++ {
			order = append(order, [2]int32{int32(gx / 2), int32(gy*2 + gx%2)})
		}
	}
	const combine = 17
	eng, err := NewBiCGStabEngine(Substrate{
		Machines: machines, PerTile: m.NZ,
		SpMV: func(src, dst [][]int, _ *PhaseCycles) error {
			for p, mach := range machines {
				for i, tile := range mach.Tiles {
					copy(tile.Arena.Slice(dst[p][i], m.NZ), tile.Arena.Slice(src[p][i], m.NZ))
				}
			}
			return nil
		},
		Index:         func(part, tile, elem int) int { return m.Index(part*2+tile%2, tile/2, elem) },
		Order:         order,
		CombineCycles: combine,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One iteration loads r0 = b (and breaks down at once: A = I).
	if _, st, err := eng.Solve(b, WSEOptions{MaxIter: 1}); err != nil || st.Wafers != 2 {
		t.Fatalf("solve: Wafers = %d, err = %v", st.Wafers, err)
	}
	var acc PhaseCycles
	got, err := eng.dot(&acc, vecR0, vecR0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("two-level dot = %.17g, host exact sum = %.17g", got, want)
	}
	if acc.Combine != combine || acc.Dot == 0 || acc.AllReduce == 0 {
		t.Errorf("dot charged %+v, want combine %d and positive dot/allreduce", acc, combine)
	}
}
