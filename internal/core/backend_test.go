package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/multiwafer"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// TestBackendSeamContract runs every backend through the one
// solver.Backend seam and pins the contract core's pipeline and the
// daemon's warm cache rest on: (a) an operator kind the backend has no
// program for — and, once a wafer program is built, its own kind on
// another mesh — is refused with an error and leaves it usable; (b) a warm
// backend handed new coefficients returns what a cold build returns,
// bit for bit — solution, history and, where machines are simulated,
// the WSEStats account; (c) Close releases every simulation pool.
//
// One field of the account is outside (b): MaxARDrift measures what the
// fabric's tree-order AllReduce would have perturbed, and that order
// follows the routers' rotation counters, which a warm machine carries
// over from its previous solve. The solver consumes the exact combine,
// so no bit of x, History or the cycle counts depends on it; only the
// Listing 1 adapter, which rewinds the machine, reproduces it too.
func TestBackendSeamContract(t *testing.T) {
	// Raise GOMAXPROCS so a sharded fabric starts its helpers under
	// GOMAXPROCS=1 too, on a multi-CPU host (engines cache the value at
	// construction, and never run more helpers than CPUs).
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	m := stencil.Mesh{NX: 4, NY: 4, NZ: 8}
	m2 := stencil.Mesh2D{NX: 8, NY: 8}
	norm7 := func(op *stencil.Op7) *stencil.Op7 { n, _ := op.Normalize(); return n }
	norm9 := func(op *stencil.Op9) *stencil.Op9 { n, _ := op.Normalize9(); return n }
	a7 := norm7(stencil.Poisson(m, 1))
	b7 := norm7(stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1))
	a9 := norm9(stencil.Poisson9(m2, 1))
	b9 := norm9(stencil.Random9(m2, 1.5, rand.New(rand.NewSource(3))))
	// The same fabrics, other meshes: a deeper column, wider blocks.
	deep7 := norm7(stencil.Poisson(stencil.Mesh{NX: m.NX, NY: m.NY, NZ: m.NZ + 2}, 1))
	wide9 := norm9(stencil.Poisson9(stencil.Mesh2D{NX: 2 * m2.NX, NY: 2 * m2.NY}, 1))

	machine := func(w, h int) *wse.Machine {
		cfg := wse.CS1(w, h)
		cfg.Workers = 4
		return wse.New(cfg)
	}
	for _, tc := range []struct {
		name  string
		build func() solver.Backend
		a, b  stencil.Operator // two systems on one mesh
		wrong stencil.Operator // a kind the backend cannot run; nil if none
		other stencil.Operator // the backend's kind on a mesh its built program does not hold; nil if any mesh is served
		// rewinds: every Solve starts from the cold machine state.
		rewinds bool
	}{
		{"host/fp64", func() solver.Backend { return solver.Host{} }, a7, b7, nil, nil, false},
		{"host/mixed-chunked", func() solver.Backend { return solver.Host{Context: solver.NewMixedChunked(m.NZ)} }, a7, b7, a9, nil, false},
		{"wafer/listing1", func() solver.Backend { return kernels.NewWafer3DBackend(machine(m.NX, m.NY)) }, a7, b7, a9, deep7, true},
		{"wafer/star", func() solver.Backend {
			return kernels.NewWaferStarBackend(machine(m.NX, m.NY), stencilc.Spec7Point())
		}, stencil.FromOp7(a7), stencil.FromOp7(b7), a7, stencil.FromOp7(deep7), false},
		{"wafer/2d", func() solver.Backend { return kernels.NewWafer2DBackend(machine(m2.NX/2, m2.NY/2), 2) }, a9, b9, a7, wide9, false},
		{"multiwafer/2x1", func() solver.Backend {
			return multiwafer.NewBackend(multiwafer.Topology{W: 2, H: 1})
		}, a7, b7, a9, deep7, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			rhs := make([]float64, tc.a.N())
			for i := range rhs {
				rhs[i] = rng.Float64()
			}
			zero := make([]float64, len(rhs))
			opts := solver.Options{MaxIter: 4, RecordHistory: true}

			type outcome struct {
				x   []float64
				st  solver.Stats
				wse kernels.WSEStats
			}
			solve := func(be solver.Backend, a stencil.Operator) outcome {
				t.Helper()
				x, st, err := be.Solve(a, rhs, zero, opts)
				if err != nil {
					t.Fatal(err)
				}
				o := outcome{x: x, st: st}
				if sim, ok := be.(interface{ LastStats() kernels.WSEStats }); ok {
					o.wse = sim.LastStats()
					if o.wse.Cycles.Total() == 0 || !reflect.DeepEqual(o.wse.History, st.History) {
						t.Fatalf("LastStats does not describe the solve just run: %+v", o.wse)
					}
				}
				return o
			}
			closeBackend := func(be solver.Backend) {
				if c, ok := be.(interface{ Close() }); ok {
					c.Close()
				}
			}

			base := settledGoroutines()
			var cold [2]outcome
			for i, a := range []stencil.Operator{tc.a, tc.b} {
				be := tc.build()
				cold[i] = solve(be, a)
				closeBackend(be)
			}

			warm := tc.build()
			got := [2]outcome{0: solve(warm, tc.a)}
			for _, bad := range []stencil.Operator{tc.wrong, tc.other} {
				if bad == nil {
					continue
				}
				ones := make([]float64, bad.N())
				for i := range ones {
					ones[i] = 1
				}
				if _, _, err := warm.Solve(bad, ones, make([]float64, bad.N()), opts); err == nil {
					t.Fatalf("%T system on mesh of %d points accepted", bad, bad.N())
				}
			}
			got[1] = solve(warm, tc.b)
			closeBackend(warm)

			for i := range cold {
				if len(cold[i].st.History) != opts.MaxIter {
					t.Fatalf("solve %d: %d history entries, want %d", i, len(cold[i].st.History), opts.MaxIter)
				}
				for k := range cold[i].x {
					if math.Float64bits(got[i].x[k]) != math.Float64bits(cold[i].x[k]) {
						t.Fatalf("solve %d: x[%d] = %v warm, %v cold", i, k, got[i].x[k], cold[i].x[k])
					}
				}
				if !reflect.DeepEqual(got[i].st, cold[i].st) {
					t.Fatalf("solve %d: stats %+v warm, %+v cold", i, got[i].st, cold[i].st)
				}
				if !tc.rewinds {
					if d := got[i].wse.MaxARDrift; d < 0 || d > 1 {
						t.Fatalf("solve %d: warm AllReduce drift %g outside the error model", i, d)
					}
					got[i].wse.MaxARDrift = cold[i].wse.MaxARDrift
				}
				if !reflect.DeepEqual(got[i].wse, cold[i].wse) {
					t.Fatalf("solve %d: wafer account %+v warm, %+v cold", i, got[i].wse, cold[i].wse)
				}
			}
			if reflect.DeepEqual(cold[0].x, cold[1].x) {
				t.Fatal("the two systems have the same solution; the reload is not exercised")
			}

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base+1 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > base+1 {
				t.Fatalf("goroutines did not return to baseline after Close: %d, baseline %d", g, base)
			}
		})
	}
}
