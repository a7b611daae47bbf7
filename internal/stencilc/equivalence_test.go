package stencilc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// checkProgram2D compiles spec for op on a fw×fh fabric with b×b blocks,
// applies it to a random vector, and requires bitwise equality with the
// Reference2D host replay (plus, for ReduceSumSq, partials equal to the
// per-tile reference fold).
func checkProgram2D(t *testing.T, spec Spec, op *stencil.Op9, b, fw, fh int, seed int64) {
	t.Helper()
	mach := wse.New(wse.CS1(fw, fh))
	defer mach.Close()
	p, err := Compile2D(mach, spec, op, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	src := randomHalfVec(op.M.N(), rng)
	p.LoadVector(src)
	if _, err := p.Run(int64(b*b)*1000 + 100000); err != nil {
		t.Fatal(err)
	}
	got := p.Result()
	want, err := Reference2D(spec, op, b, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: machine %v, reference %v", i, got[i], want[i])
		}
	}
	if spec.Reduce == ReduceSumSq {
		for ti := 0; ti < p.Tiles(); ti++ {
			st := p.tiles[ti]
			blk := make([]fp16.Float16, 0, b*b)
			for j := 0; j < b; j++ {
				for i := 0; i < b; i++ {
					blk = append(blk, want[op.M.Index(st.x*b+i, st.y*b+j)])
				}
			}
			if ref := SumSqReference(blk); p.Partials()[ti] != ref {
				t.Fatalf("tile %d: partial %v, reference %v", ti, p.Partials()[ti], ref)
			}
		}
	}
}

func TestProgram2DBoxEquivalence(t *testing.T) {
	m := stencil.Mesh2D{NX: 12, NY: 8}
	op, _ := stencil.Random9(m, 1.4, rand.New(rand.NewSource(7))).Normalize9()
	checkProgram2D(t, Spec9Point(), op, 4, 3, 2, 41)
}

func TestProgram2DStarEquivalence(t *testing.T) {
	// The heat step is the star spec's coefficient source: zero corners
	// by construction.
	m := stencil.Mesh2D{NX: 8, NY: 8}
	op, _ := stencil.Heat2D(m, 0.15).Normalize9()
	checkProgram2D(t, Spec5Point(), op, 2, 4, 4, 43)
}

func TestProgram2DSumSq(t *testing.T) {
	m := stencil.Mesh2D{NX: 8, NY: 4}
	op, _ := stencil.Heat2D(m, 0.2).Normalize9()
	checkProgram2D(t, SpecHeat2D(), op, 4, 2, 1, 47)
}

// TestProgram2DStarRejectsCorners pins the LoadCoeff guards: a 9-point
// operator with a nonzero corner diagonal cannot silently lose terms
// under the 5-point spec, and neither it, a non-unit centre nor another
// mesh is an error that costs the program — a refused reload leaves the
// loaded operator in place, bit for bit.
func TestProgram2DStarRejectsCorners(t *testing.T) {
	m := stencil.Mesh2D{NX: 4, NY: 4}
	box, _ := stencil.Random9(m, 1.4, rand.New(rand.NewSource(3))).Normalize9()
	star, _ := stencil.Heat2D(m, 0.15).Normalize9()
	other, _ := stencil.Heat2D(stencil.Mesh2D{NX: 4, NY: 6}, 0.15).Normalize9()

	mach := wse.New(wse.CS1(2, 2))
	defer mach.Close()
	if _, err := Compile2D(mach, Spec5Point(), box, 2, 0); err == nil {
		t.Fatal("Compile2D(star, full box operator) returned no error")
	}

	mach = wse.New(wse.CS1(2, 2))
	defer mach.Close()
	p, err := Compile2D(mach, Spec5Point(), star, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*stencil.Op9{
		"corner diagonals": box, "non-unit centre": stencil.Heat2D(m, 0.15), "another mesh": other,
	} {
		if err := p.LoadCoeff(bad); err == nil {
			t.Errorf("LoadCoeff(%s) returned no error", name)
		}
	}
	src := randomHalfVec(m.N(), rand.New(rand.NewSource(5)))
	p.LoadVector(src)
	if _, err := p.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	want, err := Reference2D(Spec5Point(), star, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range p.Result() {
		if got != want[i] {
			t.Fatalf("after refused reloads, element %d: machine %v, reference %v", i, got, want[i])
		}
	}
}

// ---------------------------------------------------------------------
// 3D

// fillWafer loads the global iterate into a compiled wafer program and
// host-fills every halo column whose direction leaves the fabric —
// including the relay distances, exactly what the multiwafer host does
// at width 1 — from the global source vector.
func fillWafer(p *Program3D, src []fp16.Float16) {
	m := p.Mesh
	w, h := p.M.Cfg.FabricW, p.M.Cfg.FabricH
	for i := 0; i < p.Tiles(); i++ {
		gx, gy := p.GlobalCoord(i)
		copy(p.Iterate(i), src[m.Index(gx, gy, 0):m.Index(gx, gy, 0)+m.NZ])
		x, y := gx-p.X0, gy-p.Y0
		for d := HaloDir(0); d < NumHaloDirs; d++ {
			nx, ny := x+haloDelta[d][0], y+haloDelta[d][1]
			if nx >= 0 && nx < w && ny >= 0 && ny < h {
				continue // exchanged (or relayed) on fabric
			}
			for k := 1; k <= p.Spec.Widths[axisOf(d)]; k++ {
				hx, hy := gx+k*haloDelta[d][0], gy+k*haloDelta[d][1]
				if hx < 0 || hx >= m.NX || hy < 0 || hy >= m.NY {
					continue // beyond the global mesh: term is skipped
				}
				copy(p.Halo(i, d, k), src[m.Index(hx, hy, 0):m.Index(hx, hy, 0)+m.NZ])
			}
		}
	}
}

// checkProgram3D compiles spec for op on a fabric covering the extent
// (x0, y0, fw, fh) of the global mesh, applies it to a random vector
// with host-filled edge halos, and requires bitwise equality with
// stencil.OpStarHalf.Apply on the global mesh.
func checkProgram3D(t *testing.T, spec Spec, op *stencil.OpStarHalf, x0, y0, fw, fh int, seed int64) {
	t.Helper()
	m := op.M
	mach := wse.New(wse.CS1(fw, fh))
	defer mach.Close()
	p, err := Compile3D(mach, spec, op, x0, y0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	src := randomHalfVec(m.N(), rng)
	fillWafer(p, src)
	if _, err := p.Run(int64(m.NZ)*1000 + 1<<20); err != nil {
		t.Fatal(err)
	}
	want := make([]fp16.Float16, m.N())
	op.Apply(want, src)
	for i := 0; i < p.Tiles(); i++ {
		gx, gy := p.GlobalCoord(i)
		got := p.Result(i)
		for z := 0; z < m.NZ; z++ {
			if w := want[m.Index(gx, gy, z)]; got[z] != w {
				t.Fatalf("column (%d,%d) z=%d: machine %v, reference %v", gx, gy, z, got[z], w)
			}
		}
		if spec.Reduce == ReduceSumSq {
			if ref := SumSqReference(got); p.Partials()[i] != ref {
				t.Fatalf("tile %d: partial %v, reference %v", i, p.Partials()[i], ref)
			}
		}
	}
}

func TestProgram3DSevenPointEquivalence(t *testing.T) {
	m := stencil.Mesh{NX: 5, NY: 4, NZ: 6}
	op := randomStarHalf(m, [3]int{1, 1, 1}, rand.New(rand.NewSource(11)))
	checkProgram3D(t, Spec7Point(), op, 0, 0, 5, 4, 51)
}

func TestProgram3DSeismicEquivalence(t *testing.T) {
	m := stencil.Mesh{NX: 6, NY: 5, NZ: 10}
	norm, _ := stencil.Seismic25(m, 0.08).Normalize()
	op := stencil.NewOpStarHalf(norm)
	checkProgram3D(t, SpecSeismic25(), op, 0, 0, 6, 5, 53)
}

// TestProgram3DNarrowMesh exercises relay widths larger than the fabric
// extent: every lateral term past the mesh edge is skipped while the
// uniform exchange schedule still runs all rounds.
func TestProgram3DNarrowMesh(t *testing.T) {
	m := stencil.Mesh{NX: 3, NY: 2, NZ: 4}
	op := randomStarHalf(m, [3]int{4, 4, 4}, rand.New(rand.NewSource(13)))
	checkProgram3D(t, SpecSeismic25(), op, 0, 0, 3, 2, 55)
}

// TestProgram3DAsymmetricWidths exercises unequal per-axis widths: the
// x axis relays three rounds while y stops after one and z couples at
// distance two.
func TestProgram3DAsymmetricWidths(t *testing.T) {
	spec := Spec{Dim: 3, Points: Star, Widths: [3]int{3, 1, 2}}
	m := stencil.Mesh{NX: 7, NY: 4, NZ: 6}
	op := randomStarHalf(m, spec.Widths, rand.New(rand.NewSource(17)))
	checkProgram3D(t, spec, op, 0, 0, 7, 4, 57)
}

// TestProgram3DSplitEquivalence cuts the mesh across two fabrics with
// host-filled halos at every relay distance — the seismic stencil's
// multiwafer composition seam. Both sub-extents must reproduce the
// global reference bitwise, independent of the cut.
func TestProgram3DSplitEquivalence(t *testing.T) {
	m := stencil.Mesh{NX: 7, NY: 3, NZ: 6}
	norm, _ := stencil.Seismic25(m, 0.05).Normalize()
	op := stencil.NewOpStarHalf(norm)
	checkProgram3D(t, SpecSeismic25(), op, 0, 0, 4, 3, 59)
	checkProgram3D(t, SpecSeismic25(), op, 4, 0, 3, 3, 59)
}

func TestProgram3DSumSq(t *testing.T) {
	m := stencil.Mesh{NX: 4, NY: 3, NZ: 8}
	op := randomStarHalf(m, [3]int{1, 1, 1}, rand.New(rand.NewSource(19)))
	checkProgram3D(t, SpecHeat3D(), op, 0, 0, 4, 3, 61)
}

// TestProgram3DSubExtentFastForward holds the exchange replay to
// sequential stepping on wafers placed inside a larger mesh — the
// multiwafer grid's wafers, whose edge halos the host fills: an
// interior block, each edge, a corner, a full-width strip and a 1-wide
// fabric, under the 7-point, {3,1,2}, seismic and Σy² specs. Three
// back-to-back applications must leave the same machine fingerprint,
// total cycles, result bits and partials under both engines. The
// replay must have run for every application but the first (which
// finds the cores compilation queued and cycle-simulates), so a gate
// that closes again fails as a count; a non-default queue depth must
// never reach it.
func TestProgram3DSubExtentFastForward(t *testing.T) {
	asym := Spec{Dim: 3, Points: Star, Widths: [3]int{3, 1, 2}}
	for _, c := range []struct {
		name           string
		spec           Spec
		mesh           stencil.Mesh
		x0, y0, fw, fh int
		depth          int   // router queue depth; 0 is the default
		replays        int64 // exchange replay runs over the three applications
	}{
		{"interior", Spec7Point(), stencil.Mesh{NX: 7, NY: 6, NZ: 6}, 2, 2, 3, 2, 0, 2},
		{"west edge", Spec7Point(), stencil.Mesh{NX: 7, NY: 6, NZ: 6}, 0, 2, 3, 2, 0, 2},
		{"east edge", Spec7Point(), stencil.Mesh{NX: 7, NY: 6, NZ: 6}, 4, 2, 3, 2, 0, 2},
		{"north edge", Spec7Point(), stencil.Mesh{NX: 7, NY: 6, NZ: 6}, 2, 0, 3, 2, 0, 2},
		{"south edge", Spec7Point(), stencil.Mesh{NX: 7, NY: 6, NZ: 6}, 2, 4, 3, 2, 0, 2},
		{"corner", Spec7Point(), stencil.Mesh{NX: 7, NY: 6, NZ: 6}, 4, 4, 3, 2, 0, 2},
		{"full-width strip", Spec7Point(), stencil.Mesh{NX: 7, NY: 6, NZ: 4}, 0, 2, 7, 2, 0, 2},
		{"1-wide", Spec7Point(), stencil.Mesh{NX: 5, NY: 6, NZ: 6}, 2, 1, 1, 4, 0, 2},
		{"widths {3,1,2}", asym, stencil.Mesh{NX: 10, NY: 5, NZ: 6}, 3, 1, 3, 2, 0, 2},
		{"seismic25", SpecSeismic25(), stencil.Mesh{NX: 11, NY: 7, NZ: 10}, 3, 1, 5, 4, 0, 2},
		{"heat3d sumsq", SpecHeat3D(), stencil.Mesh{NX: 6, NY: 5, NZ: 8}, 1, 1, 3, 2, 0, 2},
		{"queue depth 2", Spec7Point(), stencil.Mesh{NX: 7, NY: 6, NZ: 6}, 2, 2, 3, 2, 2, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			op := randomStarHalf(c.mesh, c.spec.Widths, rand.New(rand.NewSource(29)))
			type outcome struct {
				fp       uint64
				cycles   int64
				result   []fp16.Float16 // every tile's column, tile-major
				partials []float32
				replays  int64
			}
			run := func(engine wse.Engine) outcome {
				cfg := wse.CS1(c.fw, c.fh)
				cfg.Engine = engine
				cfg.QueueDepth = c.depth
				mach := wse.New(cfg)
				defer mach.Close()
				p, err := Compile3D(mach, c.spec, op, c.x0, c.y0, 0)
				if err != nil {
					t.Fatal(err)
				}
				var o outcome
				rng := rand.New(rand.NewSource(31))
				for app := 0; app < 3; app++ {
					fillWafer(p, randomHalfVec(c.mesh.N(), rng))
					cyc, err := p.Run(int64(c.mesh.NZ)*1000 + 1<<20)
					if err != nil {
						t.Fatal(err)
					}
					o.cycles += cyc
				}
				o.fp = mach.Fingerprint()
				for i := 0; i < p.Tiles(); i++ {
					o.result = append(o.result, p.Result(i)...)
				}
				o.partials = append(o.partials, p.Partials()...)
				if r := p.ExchangeReplay(); r != nil {
					o.replays, _, _ = r.Stats()
				}
				return o
			}
			seq, ff := run(wse.EngineSequential), run(wse.EngineFastForward)
			if ff.replays != c.replays {
				t.Errorf("exchange replay ran %d times over 3 applications, want %d", ff.replays, c.replays)
			}
			if seq.cycles != ff.cycles {
				t.Errorf("cycles: sequential %d, fast-forward %d", seq.cycles, ff.cycles)
			}
			if seq.fp != ff.fp {
				t.Errorf("fingerprint: sequential %#x, fast-forward %#x", seq.fp, ff.fp)
			}
			for i := range seq.result {
				if seq.result[i] != ff.result[i] {
					t.Fatalf("result element %d: sequential %04x, fast-forward %04x", i, seq.result[i].Bits(), ff.result[i].Bits())
				}
			}
			for i := range seq.partials {
				if math.Float32bits(seq.partials[i]) != math.Float32bits(ff.partials[i]) {
					t.Fatalf("partial %d: sequential %v, fast-forward %v", i, seq.partials[i], ff.partials[i])
				}
			}
		})
	}
}

// SumSqReference replays the fused ReduceSumSq dot for one tile: the
// hardware inner-product instruction's mixed-precision fold (exact fp16
// products into a float32 accumulator) over the tile's output elements
// in storage order — block row-major for the 2D program, the Z column
// for the 3D one.
func SumSqReference(vals []fp16.Float16) float32 {
	var acc float32
	for _, v := range vals {
		acc = fp16.MixedFMAC(acc, v, v)
	}
	return acc
}
