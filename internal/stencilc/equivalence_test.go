package stencilc

import (
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

// TestProgram3DEngineEquivalence pins the relay exchange under the
// sharded stepping engine: same cycles, same results, same machine
// fingerprint as the sequential engine.
func TestProgram3DEngineEquivalence(t *testing.T) {
	m := stencil.Mesh{NX: 6, NY: 4, NZ: 6}
	norm, _ := stencil.Seismic25(m, 0.07).Normalize()
	op := stencil.NewOpStarHalf(norm)
	src := randomHalfVec(m.N(), rand.New(rand.NewSource(23)))

	build := func(workers int) (*wse.Machine, *Program3D) {
		cfg := wse.CS1(6, 4)
		cfg.Workers = workers
		mach := wse.New(cfg)
		p, err := Compile3D(mach, SpecSeismic25(), op, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		fillWafer(p, src)
		return mach, p
	}
	mseq, pseq := build(1)
	defer mseq.Close()
	mshd, pshd := build(4)
	defer mshd.Close()
	if mseq.Fab.StepperName() == mshd.Fab.StepperName() {
		t.Skipf("engine selection unavailable: both %q", mseq.Fab.StepperName())
	}
	c1, err := pseq.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := pshd.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("cycles diverge: seq %d, sharded %d", c1, c2)
	}
	for i := 0; i < pseq.Tiles(); i++ {
		a, b := pseq.Result(i), pshd.Result(i)
		for z := range a {
			if a[z] != b[z] {
				t.Fatalf("tile %d z=%d: %v vs %v", i, z, a[z], b[z])
			}
		}
	}
	if f1, f2 := mseq.Fingerprint(), mshd.Fingerprint(); f1 != f2 {
		t.Fatalf("fingerprints diverge: %#x vs %#x", f1, f2)
	}
}
