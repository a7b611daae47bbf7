package multiwafer

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// testProblem builds a normalized momentum-like system with a random
// exact solution, returning the half operator, the fp16 rhs, and the
// float64 scaled rhs (for true-residual checks).
func testProblem(t *testing.T, nx, ny, nz int, seed int64) (*stencil.Op7Half, *stencil.Op7, []fp16.Float16, []float64) {
	t.Helper()
	m := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	rng := rand.New(rand.NewSource(seed))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}
	b := make([]float64, m.N())
	op.Apply(b, xe)
	norm, diag := op.Normalize()
	sb := stencil.ScaleRHS(b, diag)
	return stencil.NewOp7Half(norm), norm, fp16.FromFloat64Slice(sb), sb
}

func solveOn(t *testing.T, grid Topology, workers int, h *stencil.Op7Half, b []fp16.Float16, iters int) ([]fp16.Float16, Stats) {
	t.Helper()
	c, err := New(Config{Grid: grid, Workers: workers}, h)
	if err != nil {
		t.Fatalf("grid %v: %v", grid, err)
	}
	defer c.Close()
	x, st, err := c.Solve(b, kernels.WSEOptions{MaxIter: iters})
	if err != nil {
		t.Fatalf("grid %v: %v", grid, err)
	}
	return x, st
}

// TestSolveBitIdenticalAcrossWaferCounts is the package's determinism
// contract at small scale: 1, 2 and 4 wafers (including an uneven
// split) and both simulation engines produce bit-identical residual
// histories and solutions.
func TestSolveBitIdenticalAcrossWaferCounts(t *testing.T) {
	h, _, b, _ := testProblem(t, 6, 6, 8, 3)
	refX, refSt := solveOn(t, Topology{1, 1}, 1, h, b, 4)
	if len(refSt.History) == 0 {
		t.Fatal("no residual history recorded")
	}
	for _, tc := range []struct {
		grid    Topology
		workers int
	}{
		{Topology{2, 1}, 1},
		{Topology{1, 2}, 1},
		{Topology{2, 2}, 1},
		{Topology{3, 1}, 1}, // uneven: 6 columns over 3 wafers of width 2
		{Topology{2, 2}, 4}, // sharded engine
		{Topology{1, 1}, 4},
	} {
		x, st := solveOn(t, tc.grid, tc.workers, h, b, 4)
		if len(st.History) != len(refSt.History) {
			t.Fatalf("grid %v workers %d: %d iterations, want %d", tc.grid, tc.workers, len(st.History), len(refSt.History))
		}
		for i := range st.History {
			if st.History[i] != refSt.History[i] {
				t.Fatalf("grid %v workers %d: history[%d] = %.17g, want %.17g",
					tc.grid, tc.workers, i, st.History[i], refSt.History[i])
			}
		}
		for i := range x {
			if x[i] != refX[i] {
				t.Fatalf("grid %v workers %d: x[%d] = %04x, want %04x", tc.grid, tc.workers, i, x[i].Bits(), refX[i].Bits())
			}
		}
	}
}

// TestSolveConverges checks the physics: the fp16 iterate actually
// solves the system to fp16-plateau accuracy on a 2×2 wafer grid.
func TestSolveConverges(t *testing.T) {
	h, norm, b, sb := testProblem(t, 6, 6, 8, 7)
	c, err := New(Config{Grid: Topology{2, 2}}, h)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	x, st, err := c.Solve(b, kernels.WSEOptions{MaxIter: 25, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	tr := kernels.SolutionResidual(norm, x, sb)
	if tr > 2e-2 {
		t.Errorf("true residual %.3e, want fp16-plateau accuracy", tr)
	}
	if len(st.History) < 2 || st.History[len(st.History)-1] >= st.History[0] {
		t.Errorf("residual did not decrease: %v", st.History)
	}
}

// TestCycleAccounting pins the shape of the cycle account: the
// inter-wafer costs are zero on one wafer and positive on several; the
// on-wafer phases are positive everywhere; and a larger grid pays less
// AllReduce per wafer (smaller fabrics) but positive edge I/O.
func TestCycleAccounting(t *testing.T) {
	h, _, b, _ := testProblem(t, 8, 8, 8, 5)
	_, one := solveOn(t, Topology{1, 1}, 1, h, b, 3)
	_, four := solveOn(t, Topology{2, 2}, 1, h, b, 3)

	if one.Cycles.EdgeIO != 0 || one.Cycles.Combine != 0 {
		t.Errorf("single wafer charged inter-wafer cycles: %+v", one.Cycles)
	}
	if four.Cycles.EdgeIO == 0 || four.Cycles.Combine == 0 {
		t.Errorf("2x2 grid charged no inter-wafer cycles: %+v", four.Cycles)
	}
	for _, st := range []Stats{one, four} {
		if st.Cycles.SpMV == 0 || st.Cycles.Dot == 0 || st.Cycles.AllReduce == 0 || st.Cycles.Axpy == 0 {
			t.Errorf("missing simulated phase cycles: %+v", st.Cycles)
		}
	}
	if four.Cycles.AllReduce >= one.Cycles.AllReduce {
		t.Errorf("4×4-tile wafers should reduce faster than the 8×8 wafer: %d vs %d",
			four.Cycles.AllReduce, one.Cycles.AllReduce)
	}
	if one.PerIteration.Total() <= 0 {
		t.Errorf("per-iteration account empty: %+v", one.PerIteration)
	}
}

// TestBackendSeam runs the same problem through solver.Backend on the
// host and the wafer cluster: both must converge, and the multiwafer
// backend must expose the solve's cycle account via LastStats.
func TestBackendSeam(t *testing.T) {
	_, norm, _, sb := testProblem(t, 4, 4, 8, 11)
	x0 := make([]float64, len(sb))
	opts := solver.Options{MaxIter: 20, Tol: 1e-3, RecordHistory: true}

	hx, hst, err := solver.Host{}.Solve(norm, sb, x0, opts)
	if err != nil {
		t.Fatal(err)
	}
	be := &Backend{Grid: Topology{2, 1}}
	if st := be.LastStats(); st.Iterations != 0 {
		t.Error("LastStats reported a solve before any ran")
	}
	wx, wst, err := be.Solve(norm, sb, x0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hst.Converged {
		t.Errorf("host backend did not converge: %+v", hst)
	}
	mwStats := be.LastStats()
	if len(wst.History) == 0 || mwStats.Cycles.Total() == 0 {
		t.Errorf("multiwafer stats not populated: %+v / %+v", wst, mwStats)
	}
	hr := norm.ResidualNorm(hx, sb) / stencil.Norm2(sb)
	wr := norm.ResidualNorm(wx, sb) / stencil.Norm2(sb)
	if hr > 1e-3 || wr > 2e-2 {
		t.Errorf("residuals: host %.3e (want <1e-3), wafer %.3e (want fp16 plateau)", hr, wr)
	}
	if be.Name() != "multiwafer/2x1" {
		t.Errorf("backend name = %q", be.Name())
	}

	// Guard rails.
	if _, _, err := be.Solve(norm, sb, []float64{1}, opts); err == nil {
		t.Error("nonzero x0 accepted")
	}
	nonzero := make([]float64, len(sb))
	nonzero[3] = 1
	if _, _, err := be.Solve(norm, sb, nonzero, opts); err == nil {
		t.Error("full-length nonzero x0 accepted")
	}
	for _, short := range [][]float64{nil, x0[:len(x0)-1]} {
		if _, _, err := be.Solve(norm, sb, short, opts); err == nil {
			t.Errorf("x0 of length %d accepted for a system of %d", len(short), len(sb))
		}
	}
	raw := stencil.Poisson(stencil.Mesh{NX: 4, NY: 4, NZ: 8}, 1)
	if _, _, err := be.Solve(raw, sb, x0, opts); err == nil {
		t.Error("non-normalized operator accepted")
	}
	if _, _, err := be.Solve(norm, sb, x0, solver.Options{MaxIter: 2, Resume: []byte{1}}); err == nil {
		t.Error("checkpoint/resume options accepted (single-wafer only)")
	}
}

// TestBackendStatsConcurrent hammers LastStats while two Solve calls run
// on the same Backend: the mutex-guarded accessor must stay race-free
// (the old exported LastStats pointer field was not) — this test exists
// to fail under -race if that regresses.
func TestBackendStatsConcurrent(t *testing.T) {
	_, norm, _, sb := testProblem(t, 4, 4, 8, 11)
	x0 := make([]float64, len(sb))
	opts := solver.Options{MaxIter: 4, RecordHistory: true}
	be := &Backend{Grid: Topology{2, 1}}

	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				if st := be.LastStats(); st.Wafers != 0 && st.Iterations == 0 {
					t.Error("LastStats returned a populated-but-empty account")
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := be.Solve(norm, sb, x0, opts); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(done)
	if st := be.LastStats(); st.Iterations == 0 {
		t.Errorf("LastStats not populated after concurrent solves: %+v", st)
	}
}

// TestOneWaferClusterIsTheStarSolver pins the merge: a 1×1 cluster and
// the single-machine star solver at the 7-point spec are the same
// engine over the same program, so they return the same account field
// for field — not merely the same bits of x and History — under the
// sequential and the sharded engine. (At the parent the two were
// separate loops with separate stats types; the cluster reported no
// MaxARDrift at all.)
func TestOneWaferClusterIsTheStarSolver(t *testing.T) {
	h, _, b, _ := testProblem(t, 6, 5, 8, 23)
	opts := kernels.WSEOptions{MaxIter: 5}
	for _, workers := range []int{1, 4} {
		cfg := wse.CS1(h.M.NX, h.M.NY)
		cfg.Workers = workers
		mach := wse.New(cfg)
		star, err := kernels.NewBiCGStabStarWSE(mach, stencilc.Spec7Point(), stencil.HalfFromOp7(h))
		if err != nil {
			t.Fatal(err)
		}
		wantX, want, err := star.Solve(b, opts)
		mach.Close()
		if err != nil {
			t.Fatal(err)
		}

		c, err := New(Config{Grid: Topology{1, 1}, Workers: workers}, h)
		if err != nil {
			t.Fatal(err)
		}
		gotX, got, err := c.Solve(b, opts)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}

		if got.Wafers != 1 || want.Wafers != 1 {
			t.Errorf("workers %d: Wafers = %d (cluster), %d (star), want 1 and 1", workers, got.Wafers, want.Wafers)
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Breakdown != want.Breakdown {
			t.Errorf("workers %d: outcome %d/%v/%q, star solver %d/%v/%q", workers,
				got.Iterations, got.Converged, got.Breakdown, want.Iterations, want.Converged, want.Breakdown)
		}
		if got.Cycles != want.Cycles || got.PerIteration != want.PerIteration || got.SetupCycles != want.SetupCycles {
			t.Errorf("workers %d: account\n  cluster %+v / %+v / setup %d\n  star    %+v / %+v / setup %d", workers,
				got.Cycles, got.PerIteration, got.SetupCycles, want.Cycles, want.PerIteration, want.SetupCycles)
		}
		if got.MaxARDrift != want.MaxARDrift {
			t.Errorf("workers %d: MaxARDrift %g, star solver %g", workers, got.MaxARDrift, want.MaxARDrift)
		}
		if len(got.History) != len(want.History) || len(want.History) != opts.MaxIter {
			t.Fatalf("workers %d: %d history entries, star solver %d, want %d", workers, len(got.History), len(want.History), opts.MaxIter)
		}
		for i := range want.History {
			if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
				t.Fatalf("workers %d: history[%d] = %.17g, star solver %.17g", workers, i, got.History[i], want.History[i])
			}
		}
		for i := range wantX {
			if gotX[i] != wantX[i] {
				t.Fatalf("workers %d: x[%d] = %04x, star solver %04x", workers, i, gotX[i].Bits(), wantX[i].Bits())
			}
		}
	}
}

// TestAllReduceCrossCheckPerWafer pins that the fabric-vs-exact
// AllReduce cross-check runs on every wafer of a grid: over a solve on
// 2×1 wafers of 8×8 tiles each the tree-order float32 sums do differ
// from the exact ones, so the reported drift is positive — and within
// the paper's error model, or the solve would have failed.
func TestAllReduceCrossCheckPerWafer(t *testing.T) {
	h, _, b, _ := testProblem(t, 16, 8, 8, 5)
	_, st := solveOn(t, Topology{2, 1}, 1, h, b, 4)
	if st.Wafers != 2 {
		t.Errorf("Wafers = %d, want 2", st.Wafers)
	}
	if st.MaxARDrift <= 0 || st.MaxARDrift > 1 {
		t.Errorf("MaxARDrift = %g on a 2×1 grid, want in (0, 1]", st.MaxARDrift)
	}
}

// TestSolveCheckpointOptions pins what Solve does with the checkpoint
// options it used to ignore: a 1×1 cluster is one machine and honours
// them (checkpoint, then resume to the uninterrupted solve's bits); a
// larger grid refuses every one of them instead of silently running a
// fresh solve.
func TestSolveCheckpointOptions(t *testing.T) {
	h, _, b, _ := testProblem(t, 4, 4, 8, 19)
	const iters = 6
	refX, ref := solveOn(t, Topology{1, 1}, 1, h, b, iters)

	var blob []byte
	c, err := New(Config{Grid: Topology{1, 1}}, h)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Solve(b, kernels.WSEOptions{MaxIter: iters, CheckpointEvery: 3,
		Checkpoint: func(p []byte) error { blob = append([]byte(nil), p...); return nil }}); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("1×1 cluster cut no checkpoint")
	}
	x, st, err := c.Solve(b, kernels.WSEOptions{MaxIter: iters, Resume: blob})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != ref.Cycles || len(st.History) != len(ref.History) {
		t.Fatalf("resumed solve: %+v with %d history entries, uninterrupted %+v with %d",
			st.Cycles, len(st.History), ref.Cycles, len(ref.History))
	}
	for i := range ref.History {
		if st.History[i] != ref.History[i] {
			t.Fatalf("resumed history[%d] = %.17g, uninterrupted %.17g", i, st.History[i], ref.History[i])
		}
	}
	for i := range refX {
		if x[i] != refX[i] {
			t.Fatalf("resumed x[%d] = %04x, uninterrupted %04x", i, x[i].Bits(), refX[i].Bits())
		}
	}

	c2, err := New(Config{Grid: Topology{2, 1}}, h)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, tc := range []struct {
		name string
		opts kernels.WSEOptions
	}{
		{"resume", kernels.WSEOptions{MaxIter: iters, Resume: blob}},
		{"checkpoint", kernels.WSEOptions{MaxIter: iters, Checkpoint: func([]byte) error { return nil }}},
		{"every", kernels.WSEOptions{MaxIter: iters, CheckpointEvery: 3}},
	} {
		if _, _, err := c2.Solve(b, tc.opts); err == nil {
			t.Errorf("2×1 grid accepted the %s option", tc.name)
		}
	}
	// The refusal leaves the cluster usable.
	if _, _, err := c2.Solve(b, kernels.WSEOptions{MaxIter: 2}); err != nil {
		t.Errorf("solve after a refused one: %v", err)
	}
}

// TestParseTopology covers the cmd/wsesim flag syntax.
func TestParseTopology(t *testing.T) {
	if g, err := ParseTopology("2x3"); err != nil || g != (Topology{2, 3}) {
		t.Errorf("ParseTopology(2x3) = %v, %v", g, err)
	}
	for _, bad := range []string{"", "2", "0x1", "2x0", "-1x2", "axb", "2x2x4", "2x1junk", " 2x1", "2x1 "} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}
}

// TestNewRejects covers constructor error branches.
func TestNewRejects(t *testing.T) {
	m := stencil.Mesh{NX: 2, NY: 2, NZ: 8}
	norm, _ := stencil.Poisson(m, 1).Normalize()
	h := stencil.NewOp7Half(norm)
	if _, err := New(Config{Grid: Topology{3, 1}}, h); err == nil {
		t.Error("grid wider than mesh accepted")
	}
	modd := stencil.Mesh{NX: 4, NY: 4, NZ: 5}
	nodd, _ := stencil.Poisson(modd, 1).Normalize()
	if _, err := New(Config{Grid: Topology{2, 1}}, stencil.NewOp7Half(nodd)); err == nil {
		t.Error("odd Z accepted")
	}
}

// TestCloseReleasesGoroutines pins pool hygiene across a multi-machine
// cluster with sharded engines.
func TestCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	h, _, b, _ := testProblem(t, 4, 4, 8, 17)
	c, err := New(Config{Grid: Topology{2, 2}, Workers: 4}, h)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Solve(b, kernels.WSEOptions{MaxIter: 2}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines: %d before, %d after Close", before, g)
	}
}

// TestInterconnectModel pins the transfer-time arithmetic the cycle
// account and perfmodel projections share.
func TestInterconnectModel(t *testing.T) {
	ic := DefaultInterconnect()
	if got := ic.TransferSeconds(0); got != ic.LatencySec {
		t.Errorf("zero-byte transfer = %g, want latency %g", got, ic.LatencySec)
	}
	// 1.2 Tb/s moves 150 GB/s: 1.5e11 bytes in one second plus latency.
	sec := ic.TransferSeconds(150e9)
	if math.Abs(sec-(1+ic.LatencySec)) > 1e-9 {
		t.Errorf("150 GB transfer = %g s, want ~1 s", sec)
	}
}
