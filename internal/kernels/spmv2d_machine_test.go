package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// TestSpMV2DMachineMatchesFunctional pins the bit-identity contract
// between the wafer-resident block-halo program and its functional
// reference: same scatter order (diagonal-major), same Mul-then-Add
// rounding, same two-round halo fold — so the cycle-simulated result
// must equal stencilc.Reference2D exactly, element for element, on
// degenerate fabrics (1×1, a single row, a single column) too.
func TestSpMV2DMachineMatchesFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct{ tx, ty, b int }{
		{2, 2, 2}, {3, 2, 4}, {1, 4, 2}, {4, 1, 2}, {2, 3, 6}, {1, 1, 4},
	} {
		m := stencil.Mesh2D{NX: tc.tx * tc.b, NY: tc.ty * tc.b}
		norm, _ := stencil.Random9(m, 1.3, rng).Normalize9()
		mach := wse.New(wse.CS1(tc.tx, tc.ty))
		prog, err := stencilc.Compile2D(mach, stencilc.Spec9Point(), norm, tc.b, 0)
		if err != nil {
			t.Fatal(err)
		}
		src := randomHalfVector(m.N(), rng)
		want := apply2D(t, norm, tc.b, src)

		prog.LoadVector(src)
		cycles, err := prog.Run(1 << 22)
		if err != nil {
			t.Fatalf("%d×%d b=%d: %v", tc.tx, tc.ty, tc.b, err)
		}
		got := prog.Result()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d×%d b=%d: element %d: machine %v, functional %v",
					tc.tx, tc.ty, tc.b, i, got[i], want[i])
			}
		}
		t.Logf("%d×%d tiles, b=%d: %d cycles/application", tc.tx, tc.ty, tc.b, cycles)
		if !mach.AllIdle() {
			t.Errorf("%d×%d b=%d: machine not idle after the application", tc.tx, tc.ty, tc.b)
		}
		mach.Close()
	}
}

// TestSpMV2DMachineRepeatedApplications checks the arm/re-run path the
// solver leans on: consecutive applications (including a coefficient
// reload) produce exactly the functional results with no residue from
// earlier rounds in any stream.
func TestSpMV2DMachineRepeatedApplications(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := stencil.Mesh2D{NX: 8, NY: 8}
	normA, _ := stencil.Random9(m, 1.4, rng).Normalize9()
	normB, _ := stencil.Random9(m, 1.6, rng).Normalize9()
	mach := wse.New(wse.CS1(4, 4))
	defer mach.Close()
	prog, err := stencilc.Compile2D(mach, stencilc.Spec9Point(), normA, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		norm := normA
		if round == 2 {
			norm = normB
			if err := prog.LoadCoeff(norm); err != nil {
				t.Fatal(err)
			}
		}
		src := randomHalfVector(m.N(), rng)
		want := apply2D(t, norm, 2, src)
		prog.LoadVector(src)
		if _, err := prog.Run(1 << 22); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := prog.Result()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: element %d: machine %v, functional %v", round, i, got[i], want[i])
			}
		}
	}
}

// TestSpMV2DMachineShardedIdentical steps a sequential and a sharded
// machine running the same block-halo program in lockstep and requires
// the per-cycle Machine.Fingerprint (full core + fabric architectural
// state) to match every cycle — the engine-equivalence contract for the
// new 2D program.
func TestSpMV2DMachineShardedIdentical(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(29))
	m := stencil.Mesh2D{NX: 12, NY: 8}
	norm, _ := stencil.Random9(m, 1.5, rng).Normalize9()
	mseq, msh := shardedMachines(3, 2, 4)
	defer mseq.Close()
	defer msh.Close()
	pa, err := stencilc.Compile2D(mseq, stencilc.Spec9Point(), norm, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := stencilc.Compile2D(msh, stencilc.Spec9Point(), norm, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := randomHalfVector(m.N(), rng)
	pa.LoadVector(src)
	pb.LoadVector(src)
	pa.Arm()
	pb.Arm()
	for cyc := 0; cyc < 400; cyc++ {
		mseq.Step()
		msh.Step()
		if fa, fb := mseq.Fingerprint(), msh.Fingerprint(); fa != fb {
			t.Fatalf("cycle %d: machine fingerprints diverge: seq %#x, %d shards %#x",
				cyc, fa, len(msh.Fab.ShardRanges()), fb)
		}
	}
	ra, rb := pa.Result(), pb.Result()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("result element %d differs: %v vs %v", i, ra[i], rb[i])
		}
	}
	if a, b := mseq.AllIdle(), msh.AllIdle(); !a || !b {
		t.Fatalf("machines not idle after 400 cycles: seq %v sharded %v", a, b)
	}
}

// TestBiCGStab2DWSESolves checks the full 2D wafer solver: the residual
// history decreases and the solution approximately solves the system.
func TestBiCGStab2DWSESolves(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := stencil.Mesh2D{NX: 8, NY: 8}
	norm, _ := stencil.Poisson9(m, 1).Normalize9()
	mach := wse.New(wse.CS1(4, 4))
	defer mach.Close()
	s, err := NewBiCGStab2DWSE(mach, norm, 2)
	if err != nil {
		t.Fatal(err)
	}
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64() - 0.5
	}
	b64 := make([]float64, m.N())
	norm.Apply(b64, xe)
	x, st, err := s.Solve(fp16.FromFloat64Slice(b64), WSEOptions{MaxIter: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.History) == 0 {
		t.Fatal("no residual history")
	}
	first, last := st.History[0], st.History[len(st.History)-1]
	t.Logf("relative residual %g -> %g over %d iterations (%d cycles/iter)",
		first, last, st.Iterations, st.PerIteration.Total())
	if last > 0.05 {
		t.Errorf("relative residual %g after %d iterations; want < 0.05 (fp16 plateau ~1e-2)", last, st.Iterations)
	}
	// The solution must reproduce the right-hand side to fp16 accuracy.
	ax := make([]float64, m.N())
	norm.Apply(ax, fp16.ToFloat64Slice(x))
	var num, den float64
	for i := range ax {
		d := ax[i] - b64[i]
		num += d * d
		den += b64[i] * b64[i]
	}
	if rel := num / den; rel > 0.01 {
		t.Errorf("true residual² %g too large", rel)
	}
}
