// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper (see DESIGN.md §4 and EXPERIMENTS.md). Derived
// quantities (cycles, ratios, plateaus) are attached with
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates every
// published artifact in one run.
package repro

import (
	"context"
	"net/http/httptest"
	"time"

	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/mfix"
	"repro/internal/multiwafer"
	"repro/internal/perfmodel"
	"repro/internal/service"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/tensor"
	"repro/internal/wse"
)

// BenchmarkFabricStep measures one cycle of the router simulator at
// saturation across fabric sizes, for the Sequential engine and the
// Sharded engine on 8 shards (its helpers share each cycle through the
// shard handoff). The sharded/seq ratio is the tentpole speedup; the
// parallel gain requires a multi-core host to materialize, while the
// claim fast path and arena locality show up on any host. Sub-benchmark
// names are size/engine — the bench-regression CI gate keys on them
// (see cmd/benchgate).
func BenchmarkFabricStep(b *testing.B) {
	sizes := []int{16, 32, 64, 128}
	if testing.Short() {
		// 128×128 stays in short mode: it is the gate's headline entry.
		sizes = []int{16, 32, 128}
	}
	for _, size := range sizes {
		for _, eng := range []struct {
			name string
			mk   func() *fabric.Stepper
		}{
			{"seq", fabric.Sequential},
			{"sharded", func() *fabric.Stepper { return fabric.Sharded(8) }},
		} {
			b.Run(fmt.Sprintf("%dx%d/%s", size, size, eng.name), func(b *testing.B) {
				f := fabric.New(fabric.Config{W: size, H: size, Stepper: eng.mk()})
				defer f.Close()
				fabric.BuildFlows(f)
				for warm := 0; warm < 2*size; warm++ {
					fabric.DriveFlows(f)
				}
				moves0 := f.Moves()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fabric.DriveFlows(f)
				}
				b.StopTimer()
				b.ReportMetric(float64(f.Moves()-moves0)/float64(b.N), "words-moved/cycle")
			})
		}
	}
}

// spinInstr is a never-completing one-lane instruction: launched on a
// thread it keeps its core permanently on the runnable worklist, so a
// machine full of them measures the per-active-core scheduling and
// datapath cost with no idle-skip help.
type spinInstr struct{}

func (spinInstr) Step(c *wse.Core, lanes int) int {
	if lanes > 0 {
		return 1
	}
	return 0
}
func (spinInstr) Done() bool { return false }

// benchMachineStep runs one machine-cycle sub-benchmark per (size,
// shard count) pair, both on the default fast-forward engine (Step
// never jumps, so these time stepped cycles): "seq" is Workers = 0,
// fabric.Sharded(0) — one shard per P, at most one per 64 tiles, one at
// GOMAXPROCS=1 — and "sharded" is eight shards. The names predate that
// and stay, since the gate's baseline is keyed on them. Sub-names must
// not end in "-<digits>": `go test`
// appends a -GOMAXPROCS suffix only on multi-core hosts, and
// cmd/benchgate strips one trailing -N to make baselines portable — a
// literal "sharded-8" would be corrupted on one side of that
// comparison. Paper-scale entries run one engine to keep the gated
// sweep bounded.
func benchMachineStep(b *testing.B, sizes [][2]int, setup func(*wse.Machine)) {
	for _, size := range sizes {
		for _, workers := range []int{0, 8} {
			name := "seq"
			if workers > 1 {
				name = "sharded"
			}
			if size[0] > 256 && workers > 1 {
				continue
			}
			b.Run(fmt.Sprintf("%dx%d/%s", size[0], size[1], name), func(b *testing.B) {
				cfg := wse.CS1(size[0], size[1])
				cfg.Workers = workers
				mach := wse.New(cfg)
				defer mach.Close()
				if setup != nil {
					setup(mach)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mach.Step()
				}
			})
		}
	}
}

// BenchmarkMachineStep measures a full machine cycle (cores + routers)
// with every core saturated (a live thread on each tile), on the
// default shards ("seq") and on eight ("sharded"; see benchMachineStep)
// — the per-active-core path every wafer kernel simulation pays per
// cycle. The 602x595 entry is the paper's full wafer: ~358k active
// cores per cycle, steppable since scheduling went event-driven.
func BenchmarkMachineStep(b *testing.B) {
	sizes := [][2]int{{32, 32}, {64, 64}, {128, 128}, {602, 595}}
	if testing.Short() {
		// 128×128 and the paper-scale wafer stay in short mode: they are
		// the gate's headline entries.
		sizes = [][2]int{{32, 32}, {128, 128}, {602, 595}}
	}
	benchMachineStep(b, sizes, func(mach *wse.Machine) {
		for _, tl := range mach.Tiles {
			tl.Core.LaunchThread(0, "spin", spinInstr{}, nil)
		}
	})
}

// BenchmarkFP16 measures the software fp16 datapath every simulated
// element passes through, one sub-benchmark per primitive over
// 1024-element slices, reported as ns/elem. Add and Mul are the float32
// route, FMA and FromFloat64 the float64 one, Float32 the inlined
// decode, MixedFMAC the inner-product fold. One iteration is 256 passes
// over the slices, so the gate's three-iteration samples time
// milliseconds, not a cold first pass.
func BenchmarkFP16(b *testing.B) {
	const n, passes = 1024, 256
	x, y, z := make([]fp16.Float16, n), make([]fp16.Float16, n), make([]fp16.Float16, n)
	f64 := make([]float64, n)
	for i := range x {
		f64[i] = float64(i%23-11) / 28
		x[i] = fp16.FromFloat64(f64[i])
		y[i] = fp16.FromFloat64(float64(i%7) * 0.125)
	}
	var acc float32
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"Add", func() {
			for i := range z {
				z[i] = fp16.Add(x[i], y[i])
			}
		}},
		{"Mul", func() {
			for i := range z {
				z[i] = fp16.Mul(x[i], y[i])
			}
		}},
		{"FMA", func() {
			for i := range z {
				z[i] = fp16.FMA(x[i], y[i], z[i])
			}
		}},
		{"MixedFMAC", func() { acc = fp16.DotMixed(x, y) }},
		{"FromFloat64", func() {
			for i := range z {
				z[i] = fp16.FromFloat64(f64[i])
			}
		}},
		{"Float32", func() {
			for i := range x {
				acc += x[i].Float32()
			}
		}},
	} {
		b.Run(op.name, func(b *testing.B) {
			for i := 0; i < b.N*passes; i++ {
				op.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n*passes), "ns/elem")
		})
	}
	benchSink = acc
}

var benchSink float32

// BenchmarkMemOpStep measures MemOp.Step, the element path under every
// engine, on the two operand shapes that choose its path: Vec1D
// (contiguous — the slice kernel) and the same 1024 words described as
// a 32×32 Mat2D (the descriptor walk), at the cycle engines' 4 lanes
// per step and at fast-forward's whole-vector step. ns/op is 64
// 1024-element multiply-accumulates.
func BenchmarkMemOpStep(b *testing.B) {
	const rows, n, passes = 32, 32 * 32, 64
	mach := wse.New(wse.CS1(1, 1))
	defer mach.Close()
	tl := mach.Tiles[0]
	base := tl.Arena.MustAlloc("v", 3*n)
	for k := 0; k < 3*n; k++ {
		tl.Arena.Set(base+k, fp16.FromFloat64(float64(k%7)*0.125))
	}
	shapes := []struct {
		name string
		desc func(base int) tensor.Descriptor
	}{
		{"Vec1D", func(base int) tensor.Descriptor { return tensor.Vec1D(base, n) }},
		{"Mat2D", func(base int) tensor.Descriptor { return tensor.Mat2D(base, rows, n/rows, n/rows) }},
	}
	for _, sh := range shapes {
		for _, lanes := range []int{4, 1 << 30} {
			name := "lanes4"
			if lanes > 4 {
				name = "lanesAll"
			}
			b.Run(sh.name+"/"+name, func(b *testing.B) {
				op := &wse.MemOp{Kind: wse.OpMulAcc, Arena: tl.Arena,
					Dst: sh.desc(base), A: sh.desc(base + n), B: sh.desc(base + 2*n)}
				for i := 0; i < b.N*passes; i++ {
					op.Reset()
					for !op.Done() {
						op.Step(tl.Core, lanes)
					}
				}
			})
		}
	}
}

// BenchmarkPaperScaleSolve measures the solve the hybrid fast-forward
// engine makes interactive: a 2-iteration BiCGStab on the 7-point heat
// system through the public core.SolveStar facade, wafer backend,
// -engine fastforward. In short mode (the bench-regression gate's
// configuration) it runs a 60×50 fabric; the full `make bench` sweep
// runs the paper's 602×595 extent, the same shape
// TestPaperScaleBiCGStab holds under 30 s in CI.
func BenchmarkPaperScaleSolve(b *testing.B) {
	nx, ny, nz := 602, 595, 4
	if testing.Short() {
		nx, ny = 60, 50
	}
	m := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	op := stencil.Heat3D(m, 0.1, stencil.Dirichlet)
	bv := make([]float64, m.N())
	for i := range bv {
		bv[i] = float64((i%23)-11) / 28
	}
	opts := core.Options{Backend: core.Wafer, MaxIter: 2, Tol: 0,
		Wafer: core.WaferOptions{Engine: "fastforward"}}
	b.Run(fmt.Sprintf("%dx%dx%d/fastforward", nx, ny, nz), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.SolveStar(core.StarProblem{Op: op, B: bv}, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Iterations != 2 {
				b.Fatalf("solve ran %d iterations, want 2", res.Iterations)
			}
		}
	})
}

// BenchmarkExchangeReplay measures perfmodel.ExchangeReplay.Run alone,
// in the context a solve gives it: the replay stencilc built from the
// live route layout (the compiled 7-point program's exchange colors plus
// an AllReduce tree's entries as dead rotation slots), seeded with the
// rotation counters and hot set one application and one reduction left
// behind. 32×32×128 is the star_deep_ff workload's shape (long rounds,
// a long compute task to jump), 602×595×4 the paper wafer (358k tiles,
// short rounds); short mode swaps the latter for 60×50×4 as
// BenchmarkPaperScaleSolve does. Replayed and jumped cycles per Run are
// deterministic and ride along as exact metrics: a lost jump shows
// there, not just in ns/op.
func BenchmarkExchangeReplay(b *testing.B) {
	shapes := []stencil.Mesh{{NX: 32, NY: 32, NZ: 128}, {NX: 602, NY: 595, NZ: 4}}
	if testing.Short() {
		shapes[1] = stencil.Mesh{NX: 60, NY: 50, NZ: 4}
	}
	for _, mesh := range shapes {
		b.Run(fmt.Sprintf("%dx%dx%d", mesh.NX, mesh.NY, mesh.NZ), func(b *testing.B) {
			m := wse.New(wse.Config{FabricW: mesh.NX, FabricH: mesh.NY, Engine: wse.EngineFastForward})
			defer m.Close()
			norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
			p, err := stencilc.Compile3D(m, stencilc.Spec7Point(), stencil.NewOpStarHalf(norm), 0, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			ar, err := kernels.NewAllReduce(m, stencilc.NumExchangeColors)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < p.Tiles(); i++ {
				col := p.Iterate(i)
				for z := range col {
					col[z] = fp16.FromFloat64(float64((i+z)%23-11) / 28)
				}
			}
			// As a solve alternates them; the first application is
			// cycle-simulated (the freshly built machine is not idle yet).
			for round := 0; round < 2; round++ {
				if _, err := p.Run(1 << 22); err != nil {
					b.Fatal(err)
				}
				if _, err := ar.Run(make([]float32, p.Tiles()), 1<<22); err != nil {
					b.Fatal(err)
				}
			}
			rep := p.ExchangeReplay()
			if rep == nil {
				b.Fatal("the program did not fast-forward")
			}
			hot := m.Fab.HotTiles()
			_, cycles0, jumped0 := rep.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep.Run(m.Fab.RR, hot)
			}
			_, cycles, jumped := rep.Stats()
			b.ReportMetric(float64(cycles-cycles0)/float64(b.N), "sim-cycles/op")
			b.ReportMetric(float64(jumped-jumped0)/float64(b.N), "jumped-cycles/op")
		})
	}
}

// BenchmarkMachineStepIdle measures a machine cycle on a fully
// quiescent fabric — no tasks, no threads, no in-flight words — on the
// default shards ("seq") and on eight ("sharded"; see
// benchMachineStep). With
// event-driven core scheduling this is the "idle tiles are free" path:
// cost is O(engine shards), not O(cores), which is what makes the
// bursty phases of the paper's programs (AllReduce waits, scalar
// phases) cheap at any fabric size.
func BenchmarkMachineStepIdle(b *testing.B) {
	benchMachineStep(b, [][2]int{{128, 128}, {602, 595}}, nil)
}

// BenchmarkSpMV2DMachine measures one application of the wafer-resident
// 2D block-halo SpMV (the §IV-2 mapping under cycle simulation, the
// compiled stencilc.Spec9Point program BiCGStab2DWSE runs): host
// time per application plus the simulated cycle count. Sub-names are
// size/engine, matching the bench-regression gate's naming convention
// (no trailing -<digits>; see benchMachineStep).
func BenchmarkSpMV2DMachine(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct{ tiles, blk int }{{8, 4}, {16, 4}} {
		m := stencil.Mesh2D{NX: tc.tiles * tc.blk, NY: tc.tiles * tc.blk}
		norm, _ := stencil.Random9(m, 1.4, rng).Normalize9()
		src := make([]fp16.Float16, m.N())
		for i := range src {
			src[i] = fp16.FromFloat64(float64(i%13)/13 - 0.5)
		}
		for _, workers := range []int{0, 8} {
			name := "seq"
			if workers > 1 {
				name = "sharded"
			}
			b.Run(fmt.Sprintf("%dx%db%d/%s", tc.tiles, tc.tiles, tc.blk, name), func(b *testing.B) {
				cfg := wse.CS1(tc.tiles, tc.tiles)
				cfg.Workers = workers
				mach := wse.New(cfg)
				defer mach.Close()
				p, err := stencilc.Compile2D(mach, stencilc.Spec9Point(), norm, tc.blk, 0)
				if err != nil {
					b.Fatal(err)
				}
				var cycles int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.LoadVector(src)
					c, err := p.Run(1 << 22)
					if err != nil {
						b.Fatal(err)
					}
					cycles = c
				}
				b.ReportMetric(float64(cycles), "sim-cycles/application")
			})
		}
	}
}

// BenchmarkStencilApply measures one application of the stencil
// compiler's programs under cycle simulation: the 25-point width-4
// seismic operator (the multi-round halo relay), the 7-point heat step
// with its Σu² reduction (the paper's width-1 halo pipeline), and the
// 2D 5-point heat step on the block-halo mapping. Each iteration is one
// Program Run on a warm machine; the simulated cycle count rides along
// as a metric (it is separately pinned, exactly, against
// perfmodel.StencilApply3D/2D). Sub-names are kernel/engine — the
// bench-regression gate keys on them (no trailing -<digits>; see
// benchMachineStep).
func BenchmarkStencilApply(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	m := stencil.Mesh{NX: 4, NY: 4, NZ: 16}
	src := make([]fp16.Float16, m.N())
	for i := range src {
		src[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	for _, tc := range []struct {
		name string
		spec stencilc.Spec
		op   *stencil.OpStar
	}{
		{"seismic25", stencilc.SpecSeismic25(), stencil.Seismic25(m, 0.08)},
		{"heat", stencilc.SpecHeat3D(), stencil.Heat3D(m, 0.2, stencil.Dirichlet)},
	} {
		norm, _ := tc.op.Normalize()
		half := stencil.NewOpStarHalf(norm)
		for _, workers := range []int{0, 8} {
			name := "seq"
			if workers > 1 {
				name = "sharded"
			}
			b.Run(tc.name+"/"+name, func(b *testing.B) {
				cfg := wse.CS1(m.NX, m.NY)
				cfg.Workers = workers
				mach := wse.New(cfg)
				defer mach.Close()
				p, err := stencilc.Compile3D(mach, tc.spec, half, 0, 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				var cycles int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for t := 0; t < p.Tiles(); t++ {
						gx, gy := p.GlobalCoord(t)
						col := p.Iterate(t)
						for z := 0; z < m.NZ; z++ {
							col[z] = src[m.Index(gx, gy, z)]
						}
					}
					c, err := p.Run(1 << 22)
					if err != nil {
						b.Fatal(err)
					}
					cycles = c
				}
				b.ReportMetric(float64(cycles), "sim-cycles/application")
			})
		}
	}

	const blk = 4
	m2 := stencil.Mesh2D{NX: 4 * blk, NY: 4 * blk}
	op9, _ := stencil.Heat2D(m2, 0.2).Normalize9()
	src2 := make([]fp16.Float16, m2.N())
	for i := range src2 {
		src2[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	for _, workers := range []int{0, 8} {
		name := "seq"
		if workers > 1 {
			name = "sharded"
		}
		b.Run("heat2d/"+name, func(b *testing.B) {
			cfg := wse.CS1(m2.NX/blk, m2.NY/blk)
			cfg.Workers = workers
			mach := wse.New(cfg)
			defer mach.Close()
			p, err := stencilc.Compile2D(mach, stencilc.SpecHeat2D(), op9, blk, 0)
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.LoadVector(src2)
				c, err := p.Run(1 << 22)
				if err != nil {
					b.Fatal(err)
				}
				cycles = c
			}
			b.ReportMetric(float64(cycles), "sim-cycles/application")
		})
	}
}

// BenchmarkCavity2DWSEIteration measures one SIMPLE iteration of the 2D
// cavity with the pressure-correction BiCGStab cycle-simulated on an
// 8×8 fabric — the cavity-on-wafer hot path (host momentum solves plus
// 20 wafer solver iterations per sweep).
func BenchmarkCavity2DWSEIteration(b *testing.B) {
	for _, workers := range []int{0, 8} {
		name := "seq"
		if workers > 1 {
			name = "sharded"
		}
		b.Run("16x16b2/"+name, func(b *testing.B) {
			cfg := wse.CS1(8, 8)
			cfg.Workers = workers
			mach := wse.New(cfg)
			defer mach.Close()
			be := kernels.NewWafer2DBackend(mach, 2)
			var c *mfix.Cavity
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// This cavity's fp16 pressure solve breaks down in its 15th
				// sweep (TestCavityStopsOnNonFiniteSolve), so every timed
				// sweep comes from a fresh cavity's first ten.
				if i%10 == 0 {
					b.StopTimer()
					c = mfix.NewCavity2D(16, 100)
					c.Pressure = be
					b.StartTimer()
				}
				if _, err := c.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(be.Cycles.Total())/float64(be.Solves), "sim-cycles/pressure-solve")
		})
	}
}

// BenchmarkMultiWaferIteration measures BiCGStab iterations on the
// cluster-of-wafers backend — per-tile phases, the on-wafer AllReduce,
// and (on the 2x1 grid) the host-side edge-I/O halo shipping plus the
// exactly rounded two-level combine. Gated by the bench-regression CI
// job: the host cost of the multiwafer hot path (phase dispatch, halo
// copies, exact combine) must not silently regress.
func BenchmarkMultiWaferIteration(b *testing.B) {
	m := stencil.Mesh{NX: 8, NY: 8, NZ: 16}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	norm, diag := op.Normalize()
	h := stencil.NewOp7Half(norm)
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = 0.5 + float64(i%3)*0.1
	}
	b64 := make([]float64, m.N())
	op.Apply(b64, xe)
	b16 := fp16.FromFloat64Slice(stencil.ScaleRHS(b64, diag))

	for _, grid := range []multiwafer.Topology{{W: 1, H: 1}, {W: 2, H: 1}} {
		b.Run(grid.String(), func(b *testing.B) {
			c, err := multiwafer.New(multiwafer.Config{Grid: grid}, h)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var perIter float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := c.Solve(b16, kernels.WSEOptions{MaxIter: 2})
				if err != nil {
					b.Fatal(err)
				}
				perIter = float64(st.PerIteration.Total())
			}
			b.ReportMetric(perIter, "sim-cycles/iter")
		})
	}
}

// BenchmarkTable1_OperationCounts measures one mixed-precision BiCGStab
// iteration and reports the Table I operation counts per meshpoint.
func BenchmarkTable1_OperationCounts(b *testing.B) {
	m := stencil.Mesh{NX: 8, NY: 8, NZ: 16}
	op := stencil.RandomDiagDominant(m, 1.5, rand.New(rand.NewSource(1)))
	norm, diag := op.Normalize()
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = float64(i%5) - 2
	}
	b64 := make([]float64, m.N())
	op.Apply(b64, xe)
	sb := stencil.ScaleRHS(b64, diag)

	ctx := solver.NewMixed()
	a := ctx.NewOperator(norm)
	bv := ctx.NewVector(m.N())
	for i, v := range sb {
		bv.Set(i, v)
	}
	// Differencing 3-iteration and 1-iteration runs isolates the
	// steady-state per-iteration cost from the r0 setup.
	runN := func(iters int) solver.OpCounts {
		xv := ctx.NewVector(m.N())
		ctx.Counters().Reset()
		if _, err := solver.BiCGStab(ctx, a, bv, xv, solver.Options{MaxIter: iters}); err != nil {
			b.Fatal(err)
		}
		return ctx.Counters().Totals()
	}
	var c1, c3 solver.OpCounts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c1 = runN(1)
		c3 = runN(3)
	}
	n := float64(m.N())
	b.ReportMetric(float64(c3.HPAdd-c1.HPAdd)/2/n, "HP+/pt(paper=18)")
	b.ReportMetric(float64(c3.HPMul-c1.HPMul)/2/n, "HPx/pt(paper=22)")
	b.ReportMetric(float64(c3.SPAdd-c1.SPAdd)/2/n, "SP+/pt(paper=4)")
}

// BenchmarkSectionV_WSEIteration cycle-simulates wafer BiCGStab
// iterations and reports the per-iteration cycle count plus the
// calibrated extrapolation to the paper's 600×595×1536 headline.
func BenchmarkSectionV_WSEIteration(b *testing.B) {
	m := stencil.Mesh{NX: 8, NY: 8, NZ: 64}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	norm, diag := op.Normalize()
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = 0.5 + float64(i%3)*0.1
	}
	b64 := make([]float64, m.N())
	op.Apply(b64, xe)
	sb := stencil.ScaleRHS(b64, diag)
	b16 := fp16.FromFloat64Slice(sb)

	var perIter float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mach := wse.New(wse.CS1(m.NX, m.NY))
		w, err := kernels.NewBiCGStabWSE(mach, stencil.NewOp7Half(norm))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, st, err := w.Solve(b16, kernels.WSEOptions{MaxIter: 3})
		if err != nil {
			b.Fatal(err)
		}
		perIter = float64(st.PerIteration.Total())
	}
	b.ReportMetric(perIter, "sim-cycles/iter")
	us, pf, _ := perfmodel.HeadlinePrediction(perfmodel.PaperModel())
	b.ReportMetric(us, "headline-µs/iter(paper=28.1)")
	b.ReportMetric(pf, "headline-PFLOPS(paper=0.86)")
}

// BenchmarkAllReduce_Latency cycle-simulates the Figure 6 AllReduce and
// reports latency versus the fabric diameter plus the full-wafer
// extrapolation (paper: < 1.5 µs).
func BenchmarkAllReduce_Latency(b *testing.B) {
	mach := wse.New(wse.CS1(48, 48))
	ar, err := kernels.NewAllReduce(mach, 0)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]float32, 48*48)
	for i := range vals {
		vals[i] = float32(i % 11)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ar.Run(vals, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles(48x48)")
	b.ReportMetric(float64(cycles)/float64(48+48-2), "cycles/diameter")
	b.ReportMetric(perfmodel.CS1().AllReduceSeconds()*1e6, "wafer-µs(paper<1.5)")
}

// BenchmarkFigure7_ClusterScaling370 evaluates the Joule model over the
// published sweep for the 370³ mesh. The key published shape: scaling
// stalls beyond 8K cores.
func BenchmarkFigure7_ClusterScaling370(b *testing.B) {
	benchScaling(b, cluster.Fig7Mesh)
}

// BenchmarkFigure8_ClusterScaling600 is the 600³ series: 75 ms at 1,024
// cores scaling to ~6 ms at 16,384 — ~214× slower than the CS-1.
func BenchmarkFigure8_ClusterScaling600(b *testing.B) {
	benchScaling(b, cluster.Fig8Mesh)
}

// benchScaling reports the Joule model's milliseconds per iteration at
// each published core count; the timed loop is the model's evaluation.
func benchScaling(b *testing.B, mesh stencil.Mesh) {
	var pts []cluster.ScalingPoint
	for b.Loop() {
		pts = cluster.StrongScaling(cluster.Joule(), mesh, cluster.PublishedCores)
	}
	for _, p := range pts {
		b.ReportMetric(p.Seconds*1e3, "model-ms@"+itoa(p.Cores))
	}
	b.ReportMetric(pts[3].Seconds/pts[4].Seconds, "gain-8K-to-16K")
}

func itoa(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return strconv.Itoa(n/1024) + "K"
	}
	return strconv.Itoa(n)
}

// BenchmarkFigure9_MixedPrecisionResidual runs the precision study and
// reports the final residuals of both arithmetics: fp32 keeps
// converging; mixed plateaus near fp16 ε (paper: ~1e-2).
func BenchmarkFigure9_MixedPrecisionResidual(b *testing.B) {
	var series []core.Fig9Series
	for i := 0; i < b.N; i++ {
		series = core.Fig9Experiment(20, 80, 20, 15)
	}
	f32 := series[0].History
	mx := series[1].History
	b.ReportMetric(f32[len(f32)-1], "fp32-final-residual")
	b.ReportMetric(mx[len(mx)-1], "mixed-plateau(paper~1e-2)")
}

// BenchmarkTable2_SimpleCycles runs real SIMPLE iterations on the cavity
// (the measured part) and reports the Table II projection: 80–125
// timesteps/s on the CS-1 at 600³.
func BenchmarkTable2_SimpleCycles(b *testing.B) {
	c := mfix.NewCavity(8, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	pr := mfix.ProjectCS1(perfmodel.PaperModel(), 600, 600, 600, mfix.PaperSimpleParams())
	b.ReportMetric(pr.StepsPerSecond.Min, "steps/s-min(paper=80)")
	b.ReportMetric(pr.StepsPerSecond.Max, "steps/s-max(paper=125)")
	joule := mfix.JouleTimestepSeconds(cluster.Joule(), cluster.Fig8Mesh, 16384, mfix.PaperSimpleParams())
	mid := (pr.StepSeconds.Min + pr.StepSeconds.Max) / 2
	b.ReportMetric(joule/mid, "speedup-vs-16K-Joule(paper>200)")
}

// Benchmark2D_SpMVEfficiency runs the 2D block-halo SpMV's functional
// reference and reports the analytic redundant-work overhead (paper:
// < 20% at 8×8 blocks, max block 38×38).
func Benchmark2D_SpMVEfficiency(b *testing.B) {
	m := stencil.Mesh2D{NX: 64, NY: 64}
	norm, _ := stencil.Poisson9(m, 1).Normalize9()
	src := make([]fp16.Float16, m.N())
	for i := range src {
		src[i] = fp16.FromFloat64(float64(i%13) / 13)
	}
	b.SetBytes(int64(m.N() * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stencilc.Reference2D(stencilc.Spec9Point(), norm, 8, src); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(100*perfmodel.Overhead2D(8), "model-overhead-%(b=8)")
	b.ReportMetric(float64(perfmodel.MaxBlock2D(48*1024)), "max-block(paper=38)")
}

// BenchmarkFigure1_MachineBalance regenerates the machine-balance table
// and reports the CS-1's advantage over the 2016-era node.
func BenchmarkFigure1_MachineBalance(b *testing.B) {
	var entries []perfmodel.BalanceEntry
	for i := 0; i < b.N; i++ {
		entries = perfmodel.MachineBalance()
	}
	var cs1, xeon perfmodel.BalanceEntry
	for _, e := range entries {
		if e.WaferScale {
			cs1 = e
		}
		if e.Year == 2016 {
			xeon = e
		}
	}
	b.ReportMetric(xeon.FlopsPerWordMemory/cs1.FlopsPerWordMemory, "memory-balance-advantage")
	b.ReportMetric(xeon.FlopsPerWordNetwork/cs1.FlopsPerWordNetwork, "network-balance-advantage")
}

// BenchmarkSpMV3D_WaferKernel measures the cycle-level Listing 1 SpMV
// itself at the repository benchmark's deep_z shape (16×16×256; 8×8×64
// under -short, which the regression gate runs): simulated cycles per
// z-element (the performance model's 3.0 coefficient), host nanoseconds
// per tile-cycle — what one core step plus its share of the fabric step
// costs — and the Instr.Step calls per tile-cycle of lane-consuming
// instructions that found nothing to do (wse.Machine.IssueStats: idle
// calls less the sends', which never take lanes and so always return 0).
func BenchmarkSpMV3D_WaferKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := stencil.Mesh{NX: 16, NY: 16, NZ: 256}
	if testing.Short() {
		m = stencil.Mesh{NX: 8, NY: 8, NZ: 64}
	}
	norm, _ := stencil.RandomDiagDominant(m, 1.5, rng).Normalize()
	h := stencil.NewOp7Half(norm)
	mach := wse.New(wse.CS1(m.NX, m.NY))
	p, err := kernels.NewSpMV3D(mach, h)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]fp16.Float16, m.N())
	for i := range v {
		v[i] = fp16.FromFloat64(rng.Float64())
	}
	var cycles int64
	s0 := mach.IssueStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.LoadVector(v)
		c, err := p.Run(1 << 22)
		if err != nil {
			b.Fatal(err)
		}
		cycles = c
	}
	tileCycles := float64(b.N) * float64(cycles) * float64(m.NX*m.NY)
	b.ReportMetric(float64(cycles)/float64(m.NZ), "sim-cycles/z-elem")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tileCycles, "ns/tile-cycle")
	s := mach.IssueStats()
	laneIdle := (s.IdleCalls - s0.IdleCalls) - (s.ZeroLaneCalls - s0.ZeroLaneCalls)
	b.ReportMetric(float64(laneIdle)/tileCycles, "lane-idle-calls/tile-cycle")
}

// BenchmarkAblation_AllReduceVsTree compares the paper's row/column
// AllReduce latency model with an idealized binary-tree reduction
// (2·log₂N hops·avg-distance), quantifying why the mesh-aligned pattern
// wins on a 2D fabric.
func BenchmarkAblation_AllReduceVsTree(b *testing.B) {
	w := perfmodel.CS1()
	var rowcol float64
	for i := 0; i < b.N; i++ {
		rowcol = w.AllReduceCycles()
	}
	// A binary tree over 2D mesh still pays total wire delay ≥ diameter
	// per direction, plus log-depth serialization at each level.
	lg := 18.45                       // log2(602*595)
	tree := float64(w.W+w.H-2) + lg*4 // per-level handshake cost
	b.ReportMetric(rowcol, "rowcol-cycles")
	b.ReportMetric(tree, "tree-cycles-ideal")
	b.ReportMetric(tree/rowcol, "tree/rowcol")
}

// BenchmarkAblation_ZSweep evaluates the paper's "effect of changing
// mesh size and shape" prediction: iteration time and PFLOPS across Z at
// full fabric (throughput improves with Z as the AllReduce amortizes,
// bounded by the 48 KB capacity at Z≈2457).
func BenchmarkAblation_ZSweep(b *testing.B) {
	var pts []perfmodel.ShapePoint
	for i := 0; i < b.N; i++ {
		pts = perfmodel.ShapeSweep(perfmodel.PaperModel(), []int{256, 512, 1024, 1536, 2048})
	}
	for _, p := range pts {
		b.ReportMetric(p.PFLOPS, "PFLOPS@Z="+strconv.Itoa(p.Z))
	}
	b.ReportMetric(float64(perfmodel.MaxZ(48*1024)), "maxZ-capacity")
}

// BenchmarkAblation_FIFODepth sweeps the SpMV FIFO depth (paper uses 20)
// and reports the cycle cost at depth 4 relative to 20 — the stall
// sensitivity of the producer/consumer decoupling.
func BenchmarkAblation_FIFODepth(b *testing.B) {
	// The FIFO depth is a compile-time constant of the kernel; the sweep
	// uses the queue-depth knob of the fabric, which throttles the same
	// producer/consumer path.
	rng := rand.New(rand.NewSource(9))
	m := stencil.Mesh{NX: 6, NY: 6, NZ: 64}
	norm, _ := stencil.RandomDiagDominant(m, 1.5, rng).Normalize()
	h := stencil.NewOp7Half(norm)
	v := make([]fp16.Float16, m.N())
	for i := range v {
		v[i] = fp16.FromFloat64(rng.Float64())
	}
	run := func(queueDepth int) float64 {
		cfg := wse.CS1(m.NX, m.NY)
		cfg.QueueDepth = queueDepth
		mach := wse.New(cfg)
		p, err := kernels.NewSpMV3D(mach, h)
		if err != nil {
			b.Fatal(err)
		}
		p.LoadVector(v)
		c, err := p.Run(1 << 22)
		if err != nil {
			b.Fatal(err)
		}
		return float64(c)
	}
	var shallow, deep float64
	for i := 0; i < b.N; i++ {
		shallow = run(1)
		deep = run(8)
	}
	b.ReportMetric(shallow, "cycles-depth1")
	b.ReportMetric(deep, "cycles-depth8")
	b.ReportMetric(shallow/deep, "depth1/depth8")
}

// BenchmarkSnapshot measures the checkpoint path — Snapshot, binary
// encode, decode, Restore — on a loaded 128×128 wafer (256 arena words
// on each of the 16k tiles, the footprint class of the 2D cavity's
// pressure solver). This is the per-checkpoint cost a crash-recoverable
// solve pays every -checkpoint-every iterations; the bench-regression
// gate keys on the sub-name.
func BenchmarkSnapshot(b *testing.B) {
	mach := wse.New(wse.CS1(128, 128))
	defer mach.Close()
	const words = 256
	for i, tl := range mach.Tiles {
		base := tl.Arena.MustAlloc("v", words)
		for k := 0; k < words; k++ {
			tl.Arena.Set(base+k, fp16.FromFloat64(float64((i+k)%97)*0.25))
		}
	}
	b.Run("128x128/roundtrip", func(b *testing.B) {
		var blobLen int
		for i := 0; i < b.N; i++ {
			snap, err := mach.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			blob, err := snap.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			dec, err := wse.UnmarshalSnapshot(blob)
			if err != nil {
				b.Fatal(err)
			}
			if err := mach.Restore(dec); err != nil {
				b.Fatal(err)
			}
			blobLen = len(blob)
		}
		b.ReportMetric(float64(blobLen), "snapshot-bytes")
	})
}

// BenchmarkServiceSolve measures the wsesimd job API end to end: an
// in-process daemon (4 solve workers, warm machine cache) driven by the
// ssbench load engine over real HTTP. full-write submits a wafer solve
// and polls it to completion per operation; mixed is the read-mostly
// profile (status reads against a 20% submit stream). The cache is
// pre-warmed so the steady state — snapshot rewind + coefficient load
// instead of a machine build per job — is what the regression gate
// tracks; QPS and mean per-class latency ride along as metrics.
func BenchmarkServiceSolve(b *testing.B) {
	spec := service.JobSpec{Problem: "momentum", NX: 4, NY: 4, NZ: 8, Backend: "wafer", MaxIter: 4}
	for _, mix := range []service.LoadMix{service.MixFullWrite, service.MixReadWrite} {
		b.Run(string(mix), func(b *testing.B) {
			s, err := service.New(service.Config{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			s.Start()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			}()
			if _, err := service.RunLoad(service.LoadOptions{
				BaseURL: ts.URL, Mix: service.MixFullWrite, Concurrency: 4, Ops: 8, Spec: spec,
			}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			st, err := service.RunLoad(service.LoadOptions{
				BaseURL: ts.URL, Mix: mix, Concurrency: 4, Ops: b.N, Spec: spec,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(st.QPS, "qps")
			if st.Writes.Count > 0 {
				b.ReportMetric(float64(st.Writes.Avg.Nanoseconds()), "solve-avg-ns")
			}
			if st.Reads.Count > 0 {
				b.ReportMetric(float64(st.Reads.Avg.Nanoseconds()), "read-avg-ns")
			}
		})
	}
}
