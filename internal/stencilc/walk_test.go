package stencilc

import (
	"math/rand"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// TestTermsWalkIsTheProgram pins the single source of Program3D's
// compute sequence against its three renderings: for random star specs
// (widths ≤ 4, Z from below the z-width to above it, with and without
// the fused Σy²) on fabrics from 1×1 to wider than twice the widest halo
// — so every corner, edge and interior class of tile occurs — the walk's
// term count, Σ⌈n/4⌉ and Σn equal the built compute task's instruction
// count and ΣStaticCycles, the fast-forward shape, and the compute stage
// of the perfmodel entry the fast-forward replays. A sub-extent wafer
// (no perfmodel entry) is held to the first two.
func TestTermsWalkIsTheProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 48; trial++ {
		widths := [3]int{1 + rng.Intn(4), 1 + rng.Intn(4), 1 + rng.Intn(4)}
		fw, fh := 1+rng.Intn(6), 1+rng.Intn(6)
		if trial%8 == 0 {
			fw, fh = 2*widths[0]+1, 2*widths[1]+1 // an interior tile at full width
		}
		z := 2 * (1 + rng.Intn(5))
		spec := Spec{Dim: 3, Points: Star, Widths: widths}
		if rng.Intn(2) == 0 {
			spec.Reduce = ReduceSumSq
		}
		// Every third trial cuts the fabric out of a larger mesh.
		m, x0, y0 := stencil.Mesh{NX: fw, NY: fh, NZ: z}, 0, 0
		if trial%3 == 2 {
			x0, y0 = rng.Intn(3), rng.Intn(3)
			m.NX, m.NY = x0+fw+rng.Intn(3), y0+fh+rng.Intn(3)
		}
		whole := m.NX == fw && m.NY == fh
		mach := wse.New(wse.CS1(fw, fh))
		p, err := Compile3D(mach, spec, randomStarHalf(m, widths, rng), x0, y0, 0)
		if err != nil {
			t.Fatal(err)
		}
		model := perfmodel.StencilApply3D{W: fw, H: fh, Z: z, Widths: widths, SumSq: spec.Reduce == ReduceSumSq}
		for _, st := range p.tiles {
			var terms int
			var cycles, lanes int64
			p.terms(st, func(tm term) {
				terms++
				cycles += int64((tm.n + 3) / 4)
				lanes += int64(tm.n)
			})

			p.buildInstrs(st)
			var instrCycles, instrLanes int64
			for _, in := range st.compute.Instrs {
				cy, ln, ok := wse.StaticCycles(in, 4)
				if !ok {
					t.Fatalf("%v tile (%d,%d): instruction not statically timed", spec, st.x, st.y)
				}
				instrCycles += cy
				instrLanes += ln
			}
			if len(st.compute.Instrs) != terms || instrCycles != cycles || instrLanes != lanes {
				t.Fatalf("%v %dx%d z=%d tile (%d,%d): built task %d instrs / %d cycles / %d lanes, walk %d / %d / %d",
					spec, fw, fh, z, st.x, st.y, len(st.compute.Instrs), instrCycles, instrLanes, terms, cycles, lanes)
			}

			wantLanes := lanes
			if st.dotTask != nil {
				wantLanes += int64(2 * z)
			}
			if pc, cy, ln := p.shape(st); pc != terms || cy != cycles || ln != wantLanes {
				t.Fatalf("%v %dx%d z=%d tile (%d,%d): shape %d / %d / %d, walk %d / %d / %d",
					spec, fw, fh, z, st.x, st.y, pc, cy, ln, terms, cycles, wantLanes)
			}

			if !whole {
				continue
			}
			stages := model.Stages(st.x, st.y)
			compute := stages[len(stages)-1]
			if st.dotTask != nil {
				compute = stages[len(stages)-2]
			}
			if int64(compute.Task) != cycles {
				t.Fatalf("%v %dx%d z=%d tile (%d,%d): perfmodel compute stage %d cycles, walk %d",
					spec, fw, fh, z, st.x, st.y, compute.Task, cycles)
			}
		}
		mach.Close()
	}
}

// TestRunAllocatesNothing pins the re-armed programs: after the first
// application built the instructions (Program2D at compile time), a
// cycle-simulated Program2D.Run and a fast-forwarded Program3D.Run
// allocate nothing.
func TestRunAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(25))

	cfg := wse.CS1(3, 2)
	cfg.Engine = wse.EngineSequential
	mach := wse.New(cfg)
	defer mach.Close()
	m2 := stencil.Mesh2D{NX: 12, NY: 8}
	op2, _ := stencil.Heat2D(m2, 0.2).Normalize9()
	p2, err := Compile2D(mach, SpecHeat2D(), op2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2.LoadVector(randomHalfVec(m2.N(), rng))
	run := func(p interface {
		Run(int64) (int64, error)
	}) func() {
		return func() {
			if _, err := p.Run(1 << 20); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(p2)()
	if n := testing.AllocsPerRun(5, run(p2)); n != 0 {
		t.Errorf("Program2D.Run: %v allocations per application, want 0", n)
	}

	cfg = wse.CS1(4, 3)
	cfg.Engine = wse.EngineFastForward
	ff := wse.New(cfg)
	defer ff.Close()
	m3 := stencil.Mesh{NX: 4, NY: 3, NZ: 8}
	p3, err := Compile3D(ff, SpecHeat3D(), randomStarHalf(m3, [3]int{1, 1, 1}, rng), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillWafer(p3, randomHalfVec(m3.N(), rng))
	run(p3)()
	if n := testing.AllocsPerRun(5, run(p3)); n != 0 {
		t.Errorf("fast-forwarded Program3D.Run: %v allocations per application, want 0", n)
	}
	// The first application cycle-simulates (compilation leaves cores
	// queued, which the eligibility gate rejects); the warm-up and the
	// five measured ones must all have taken the fast-forward path.
	if runs, _, _ := p3.ExchangeReplay().Stats(); runs != 6 {
		t.Errorf("exchange replay ran %d times, want the 6 applications after the first fast-forwarded", runs)
	}
}
