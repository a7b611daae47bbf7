package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// TestWarmSolverReuseBitIdentical pins the contract the service layer's
// machine cache rests on: a solver that already ran one solve, handed a
// new operator via LoadCoeff, produces exactly what a freshly built
// machine produces — solution and history bits, every cycle count and
// the AllReduce drift — for both the Listing 1 FIFO pipeline and the
// halo-exchange variant (the star solver at the 7-point spec). LoadCoeff
// restarts the fabric's arbitration, so a warm machine arbitrates as a
// cold one; the Listing 1 pipeline's accumulation order and the halo
// variant's drift both follow the rotation counters. An operator
// LoadCoeff refuses (another mesh; for the halo variant also other
// widths) is an error that leaves the solver serving the next reload to
// the same bits.
func TestWarmSolverReuseBitIdentical(t *testing.T) {
	m := stencil.Mesh{NX: 4, NY: 4, NZ: 8}
	opA := stencil.NewOp7Half(normalized(t, stencil.Poisson(m, 1)))
	opB := stencil.NewOp7Half(normalized(t, stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)))
	bvec := testRHS(m, 11)
	const iters = 4

	// build returns the solver and its reload: LoadCoeff, in the
	// operator form the solver takes.
	type build func(*wse.Machine, *stencil.Op7Half) (wseSolver, func(*stencil.Op7Half) error, error)
	for _, tc := range []struct {
		name  string
		build build
	}{
		{"listing1", func(m *wse.Machine, op *stencil.Op7Half) (wseSolver, func(*stencil.Op7Half) error, error) {
			sv, err := NewBiCGStabWSE(m, op)
			if err != nil {
				return nil, nil, err
			}
			return sv, sv.LoadCoeff, nil
		}},
		{"halo", func(m *wse.Machine, op *stencil.Op7Half) (wseSolver, func(*stencil.Op7Half) error, error) {
			sv, err := newHaloSolver(m, op)
			return sv, func(op *stencil.Op7Half) error {
				wide := stencil.NewOpStar(op.M, [3]int{2, 1, 1})
				for i := range wide.C {
					wide.C[i] = 1
				}
				if err := sv.LoadCoeff(stencil.NewOpStarHalf(wide)); err == nil {
					t.Error("LoadCoeff accepted an operator of other widths")
				}
				return sv.LoadCoeff(stencil.HalfFromOp7(op))
			}, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: a cold machine built directly for opB.
			cold := wse.New(wse.CS1(m.NX, m.NY))
			defer cold.Close()
			ws, _, err := tc.build(cold, opB)
			if err != nil {
				t.Fatal(err)
			}
			refX, refSt, err := ws.Solve(bvec, WSEOptions{MaxIter: iters})
			if err != nil {
				t.Fatal(err)
			}

			// Warm path: build for opA, run a solve, swap to opB, run again.
			warm := wse.New(wse.CS1(m.NX, m.NY))
			defer warm.Close()
			wsWarm, reload, err := tc.build(warm, opA)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := wsWarm.Solve(bvec, WSEOptions{MaxIter: 2}); err != nil {
				t.Fatal(err)
			}
			if err := reload(opB); err != nil {
				t.Fatal(err)
			}
			solveAsCold := func(when string) {
				t.Helper()
				gotX, gotSt, err := wsWarm.Solve(bvec, WSEOptions{MaxIter: iters})
				if err != nil {
					t.Fatal(err)
				}
				compareRuns(t, when, gotX, gotSt, refX, refSt)
			}
			solveAsCold("after reuse")

			// A mesh mismatch must be refused, not corrupt the program.
			wrong := stencil.NewOp7Half(normalized(t, stencil.Poisson(stencil.Mesh{NX: 4, NY: 4, NZ: 10}, 1)))
			if err := reload(wrong); err == nil {
				t.Fatal("LoadCoeff accepted an operator for a different mesh")
			}
			if err := reload(opB); err != nil {
				t.Fatal(err)
			}
			solveAsCold("after a refused reload")
		})
	}
}

func normalized(t *testing.T, op *stencil.Op7) *stencil.Op7 {
	t.Helper()
	norm, _ := op.Normalize()
	return norm
}

func testRHS(m stencil.Mesh, seed int64) []fp16.Float16 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]fp16.Float16, m.N())
	for i := range b {
		b[i] = fp16.FromFloat64(rng.Float64())
	}
	return b
}
