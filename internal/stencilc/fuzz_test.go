package stencilc

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// FuzzStencilcEquivalence drives the whole compiler contract from random
// specs: a fuzzed (dimensionality, fabric, block/column depth, widths,
// reduction) tuple is compiled and run on the sequential engine and on
// fast-forward, on one shard and several, and every machine's output
// must equal the functional reference bit for bit — plus the engines
// must agree on cycles, and the cycle count must equal the exact
// perfmodel replay entry. Seed corpus in
// testdata/fuzz/FuzzStencilcEquivalence; CI runs this in fuzz-smoke.
func FuzzStencilcEquivalence(f *testing.F) {
	f.Add(int64(1), uint64(0x020202), uint64(0))
	f.Add(int64(7), uint64(0x010303), uint64(1))
	f.Add(int64(-9), uint64(0x040201), uint64(6))
	f.Add(int64(55), uint64(0x030104), uint64(3))
	f.Fuzz(func(t *testing.T, seed int64, dims, sel uint64) {
		rng := rand.New(rand.NewSource(seed))
		fw := int(dims&0xff)%4 + 1
		fh := int((dims>>8)&0xff)%4 + 1
		depth := int((dims>>16)&0xff)%3 + 1 // z = 2·4·depth/2 … see below
		sumsq := sel&1 != 0
		workers := rng.Intn(6) + 2

		if sel&2 != 0 {
			fuzz2D(t, rng, fw, fh, depth, sel, sumsq, workers)
		} else {
			fuzz3D(t, rng, fw, fh, depth, sel, sumsq, workers)
		}
	})
}

// runEngines compiles and runs a program under the sequential reference
// interpreter and the fast-forward engine (which replays the exchange),
// on its default shards and on workers with the parallel path forced,
// requiring identical cycles, and returns the sequential cycle count.
// Each engine is named: EngineAuto would be fast-forward, not the
// reference.
func runEngines(t *testing.T, workers int, build func(*wse.Machine) interface {
	Run(int64) (int64, error)
}, fw, fh int) int64 {
	t.Helper()
	var cycles int64
	for i, leg := range []struct {
		e       wse.Engine
		workers int
	}{{wse.EngineSequential, 0}, {wse.EngineFastForward, 0}, {wse.EngineFastForward, workers}} {
		cfg := wse.CS1(fw, fh)
		cfg.Engine, cfg.Workers = leg.e, leg.workers
		mach := wse.New(cfg)
		if leg.workers > 1 {
			fabric.ForceParallel(mach.Fab)
		}
		t.Cleanup(mach.Close)
		c, err := build(mach).Run(1 << 22)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cycles = c
		} else if c != cycles {
			t.Fatalf("cycles diverge: sequential %d, %v on %d workers %d", cycles, leg.e, leg.workers, c)
		}
	}
	return cycles
}

func fuzz3D(t *testing.T, rng *rand.Rand, fw, fh, depth int, sel uint64, sumsq bool, workers int) {
	z := 2 * (depth + 1) // 4, 6, 8
	widths := [3]int{int(sel>>2)%3 + 1, int(sel>>4)%3 + 1, int(sel>>6)%4 + 1}
	spec := Spec{Dim: 3, Points: Star, Widths: widths}
	if sumsq {
		spec.Reduce = ReduceSumSq
	}
	m := stencil.Mesh{NX: fw, NY: fh, NZ: z}
	op := randomStarHalf(m, widths, rng)
	src := randomHalfVec(m.N(), rng)

	var progs []*Program3D
	cycles := runEngines(t, workers, func(mach *wse.Machine) interface {
		Run(int64) (int64, error)
	} {
		p, err := Compile3D(mach, spec, op, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		fillWafer(p, src)
		progs = append(progs, p)
		return p
	}, fw, fh)

	ref := make([]fp16.Float16, m.N())
	op.Apply(ref, src)
	for _, p := range progs {
		for i := 0; i < p.Tiles(); i++ {
			gx, gy := p.GlobalCoord(i)
			got := p.Result(i)
			for zz := 0; zz < m.NZ; zz++ {
				if w := ref[m.Index(gx, gy, zz)]; got[zz] != w {
					t.Fatalf("column (%d,%d) z=%d: machine %v, reference %v", gx, gy, zz, got[zz], w)
				}
			}
			if sumsq {
				if r := SumSqReference(got); p.Partials()[i] != r {
					t.Fatalf("tile %d: partial %v, reference %v", i, p.Partials()[i], r)
				}
			}
		}
	}
	model := perfmodel.StencilApply3D{W: fw, H: fh, Z: z, Widths: widths, SumSq: sumsq}.Cycles()
	if cycles != model {
		t.Fatalf("3D (%d,%d,%d) W=%v sumsq=%v: simulator %d cycles, model %d", fw, fh, z, widths, sumsq, cycles, model)
	}
}

func fuzz2D(t *testing.T, rng *rand.Rand, fw, fh, depth int, sel uint64, sumsq bool, workers int) {
	b := 2 * depth // 2, 4, 6
	star := sel&4 != 0
	spec := Spec9Point()
	if star {
		spec = Spec5Point()
	}
	if sumsq {
		spec.Reduce = ReduceSumSq
	}
	m := stencil.Mesh2D{NX: fw * b, NY: fh * b}
	var op *stencil.Op9
	if star {
		op, _ = stencil.Heat2D(m, 0.05+rng.Float64()/3).Normalize9()
	} else {
		op, _ = stencil.Random9(m, 1.3, rng).Normalize9()
	}
	src := randomHalfVec(m.N(), rng)

	var progs []*Program2D
	cycles := runEngines(t, workers, func(mach *wse.Machine) interface {
		Run(int64) (int64, error)
	} {
		p, err := Compile2D(mach, spec, op, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.LoadVector(src)
		progs = append(progs, p)
		return p
	}, fw, fh)

	ref, err := Reference2D(spec, op, b, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		got := p.Result()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("element %d: machine %v, reference %v", i, got[i], ref[i])
			}
		}
		if sumsq {
			for ti := 0; ti < p.Tiles(); ti++ {
				st := p.tiles[ti]
				blk := make([]fp16.Float16, 0, b*b)
				for j := 0; j < b; j++ {
					for i := 0; i < b; i++ {
						blk = append(blk, ref[m.Index(st.x*b+i, st.y*b+j)])
					}
				}
				if r := SumSqReference(blk); p.Partials()[ti] != r {
					t.Fatalf("tile %d: partial %v, reference %v", ti, p.Partials()[ti], r)
				}
			}
		}
	}
	points := 9
	if star {
		points = 5
	}
	model := perfmodel.StencilApply2D{W: fw, H: fh, B: b, Points: points, SumSq: sumsq}.Cycles()
	if cycles != model {
		t.Fatalf("2D (%d,%d) b=%d star=%v sumsq=%v: simulator %d cycles, model %d", fw, fh, b, star, sumsq, cycles, model)
	}
}
