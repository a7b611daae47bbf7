package stencilc

import (
	"math/rand"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// measure3D compiles a 3D star program on a fresh machine and returns the
// simulated cycles of one application.
func measure3D(t *testing.T, w, h, z int, widths [3]int, workers int) int64 {
	t.Helper()
	return measurePlaced3D(t, stencil.Mesh{NX: w, NY: h, NZ: z}, 0, 0, w, h, widths, workers)
}

// measurePlaced3D does the same for a w×h fabric at tile (x0, y0) of
// mesh m, with its edge halos host-filled.
func measurePlaced3D(t *testing.T, m stencil.Mesh, x0, y0, w, h int, widths [3]int, workers int) int64 {
	t.Helper()
	spec := Spec{Dim: 3, Points: Star, Widths: widths}
	op := randomStarHalf(m, widths, rand.New(rand.NewSource(1)))
	cfg := wse.CS1(w, h)
	cfg.Workers = workers
	mach := wse.New(cfg)
	defer mach.Close()
	p, err := Compile3D(mach, spec, op, x0, y0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillWafer(p, randomHalfVec(m.N(), rand.New(rand.NewSource(2))))
	cyc, err := p.Run(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	return cyc
}

// measure2D does the same for a 2D block-halo program.
func measure2D(t *testing.T, fw, fh, b int, star bool, workers int) int64 {
	t.Helper()
	m := stencil.Mesh2D{NX: fw * b, NY: fh * b}
	var op *stencil.Op9
	spec := Spec9Point()
	if star {
		spec = Spec5Point()
		op, _ = stencil.Heat2D(m, 0.15).Normalize9()
	} else {
		op, _ = stencil.Random9(m, 1.4, rand.New(rand.NewSource(3))).Normalize9()
	}
	cfg := wse.CS1(fw, fh)
	cfg.Workers = workers
	mach := wse.New(cfg)
	defer mach.Close()
	p, err := Compile2D(mach, spec, op, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.LoadVector(randomHalfVec(m.N(), rand.New(rand.NewSource(4))))
	cyc, err := p.Run(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	return cyc
}

// TestStencilApplyModelExact pins perfmodel.StencilApply3D/2D bit-exactly
// to the cycle simulator across fabric shapes, column depths and halo
// widths (the multi-round relay programs included) and, for 3D, across
// placements of the fabric inside a larger mesh, including fabrics wider
// than the model's horizon clamp and mesh margins wider than the halo.
func TestStencilApplyModelExact(t *testing.T) {
	for _, c := range []struct {
		w, h, z    int
		wx, wy, wz int
	}{
		{1, 1, 4, 1, 1, 1}, {2, 1, 4, 1, 1, 1}, {1, 3, 8, 1, 1, 1},
		{2, 2, 4, 1, 1, 1}, {3, 3, 4, 1, 1, 1}, {4, 3, 6, 1, 1, 1},
		{2, 2, 8, 1, 1, 1}, {2, 2, 16, 1, 1, 1}, {2, 2, 32, 1, 1, 1},
		{3, 3, 8, 1, 1, 1}, {3, 3, 16, 1, 1, 1},
		{3, 3, 4, 2, 2, 2}, {4, 4, 8, 2, 2, 2}, {5, 5, 4, 2, 2, 2},
		{4, 4, 8, 4, 4, 4}, {6, 5, 10, 4, 4, 4}, {3, 2, 4, 4, 4, 4},
		{7, 4, 6, 3, 1, 2}, {5, 4, 6, 1, 3, 2}, {4, 4, 4, 2, 1, 8},
		{2, 2, 16, 1, 1, 8}, {2, 2, 16, 1, 1, 4},
		{9, 9, 4, 4, 4, 1}, {9, 2, 4, 4, 4, 1}, {2, 9, 6, 4, 2, 1},
		{3, 3, 8, 2, 2, 1}, {3, 3, 8, 1, 1, 2}, {3, 3, 8, 2, 1, 1},
		{3, 3, 8, 1, 2, 1},
		{5, 5, 8, 2, 2, 1}, {5, 5, 8, 3, 3, 1}, {5, 5, 8, 4, 4, 1},
		{5, 5, 16, 2, 2, 1},
		{4, 4, 8, 2, 2, 1}, {4, 4, 8, 2, 2, 4}, {4, 4, 8, 2, 2, 8},
	} {
		widths := [3]int{c.wx, c.wy, c.wz}
		got := perfmodel.StencilApply3D{W: c.w, H: c.h, Z: c.z, Widths: widths}.Cycles()
		want := measure3D(t, c.w, c.h, c.z, widths, 1)
		if got != want {
			t.Errorf("3D (%d,%d,%d) W=%v: model %d, simulator %d", c.w, c.h, c.z, widths, got, want)
		}
	}
	for _, c := range []struct {
		mesh           stencil.Mesh
		x0, y0, fw, fh int
		widths         [3]int
	}{
		{stencil.Mesh{NX: 7, NY: 6, NZ: 6}, 2, 2, 3, 2, [3]int{1, 1, 1}},   // interior
		{stencil.Mesh{NX: 7, NY: 6, NZ: 6}, 4, 4, 3, 2, [3]int{1, 1, 1}},   // corner
		{stencil.Mesh{NX: 7, NY: 6, NZ: 4}, 0, 2, 7, 2, [3]int{1, 1, 1}},   // full-width strip
		{stencil.Mesh{NX: 5, NY: 6, NZ: 6}, 2, 1, 1, 4, [3]int{1, 1, 1}},   // 1-wide
		{stencil.Mesh{NX: 8, NY: 8, NZ: 8}, 4, 0, 4, 4, [3]int{1, 1, 1}},   // a 2×2 grid's wafer
		{stencil.Mesh{NX: 10, NY: 5, NZ: 6}, 3, 1, 3, 2, [3]int{3, 1, 2}},  // asymmetric widths
		{stencil.Mesh{NX: 11, NY: 7, NZ: 10}, 3, 1, 5, 4, [3]int{4, 4, 4}}, // seismic widths
		{stencil.Mesh{NX: 24, NY: 4, NZ: 4}, 0, 1, 21, 2, [3]int{1, 1, 1}}, // clamped: 21 > 19
		{stencil.Mesh{NX: 25, NY: 4, NZ: 4}, 1, 1, 23, 2, [3]int{2, 2, 1}}, // clamped: 23 > 21
		{stencil.Mesh{NX: 26, NY: 7, NZ: 4}, 3, 3, 21, 2, [3]int{1, 1, 1}}, // clamped, margins 3/2 > 1
	} {
		got := perfmodel.StencilApply3D{W: c.fw, H: c.fh, Z: c.mesh.NZ, Widths: c.widths,
			MeshX: c.mesh.NX, MeshY: c.mesh.NY, X0: c.x0, Y0: c.y0}.Cycles()
		want := measurePlaced3D(t, c.mesh, c.x0, c.y0, c.fw, c.fh, c.widths, 1)
		if got != want {
			t.Errorf("3D %dx%d at (%d,%d) of %v W=%v: model %d, simulator %d",
				c.fw, c.fh, c.x0, c.y0, c.mesh, c.widths, got, want)
		}
	}
	for _, c := range []struct {
		fw, fh, b int
		star      bool
	}{
		{1, 1, 4, false}, {2, 2, 2, false}, {2, 2, 4, false}, {3, 2, 4, false},
		{4, 4, 8, false}, {2, 1, 6, false}, {1, 3, 4, false},
		{2, 2, 4, true}, {4, 4, 2, true}, {3, 3, 6, true},
	} {
		points := 9
		if c.star {
			points = 5
		}
		got := perfmodel.StencilApply2D{W: c.fw, H: c.fh, B: c.b, Points: points}.Cycles()
		want := measure2D(t, c.fw, c.fh, c.b, c.star, 1)
		if got != want {
			t.Errorf("2D (%d,%d) b=%d star=%v: model %d, simulator %d", c.fw, c.fh, c.b, c.star, got, want)
		}
	}
}

// TestStencilApplyModelEngines pins the model against a fabric of four
// shards too: the worklist scheduler must not change cycle counts, and
// the model must match both.
func TestStencilApplyModelEngines(t *testing.T) {
	for _, c := range []struct {
		w, h, z    int
		wx, wy, wz int
	}{
		{5, 5, 8, 4, 4, 1}, {4, 4, 8, 2, 2, 4}, {3, 3, 8, 1, 1, 2},
	} {
		widths := [3]int{c.wx, c.wy, c.wz}
		model := perfmodel.StencilApply3D{W: c.w, H: c.h, Z: c.z, Widths: widths}.Cycles()
		if seq := measure3D(t, c.w, c.h, c.z, widths, 1); seq != model {
			t.Errorf("3D (%d,%d,%d) W=%v sequential: %d, model %d", c.w, c.h, c.z, widths, seq, model)
		}
		if par := measure3D(t, c.w, c.h, c.z, widths, 4); par != model {
			t.Errorf("3D (%d,%d,%d) W=%v sharded: %d, model %d", c.w, c.h, c.z, widths, par, model)
		}
	}
	model := perfmodel.StencilApply2D{W: 3, H: 2, B: 4, Points: 9}.Cycles()
	if seq := measure2D(t, 3, 2, 4, false, 1); seq != model {
		t.Errorf("2D sequential: %d, model %d", seq, model)
	}
	if par := measure2D(t, 3, 2, 4, false, 4); par != model {
		t.Errorf("2D sharded: %d, model %d", par, model)
	}
}

// TestStencilApplyModelClamp pins the dependency-horizon reduction: on a
// fabric wider than the clamp the reduced replay must still match the
// full simulator, tile for tile.
func TestStencilApplyModelClamp(t *testing.T) {
	// Width 1 → horizon 9 → clamp 19: 21 wide exercises the reduction.
	got := perfmodel.StencilApply3D{W: 21, H: 2, Z: 4, Widths: [3]int{1, 1, 1}}.Cycles()
	want := measure3D(t, 21, 2, 4, [3]int{1, 1, 1}, 1)
	if got != want {
		t.Errorf("3D clamped 21x2: model %d, simulator %d", got, want)
	}
	got2 := perfmodel.StencilApply2D{W: 20, H: 1, B: 2, Points: 9}.Cycles()
	want2 := measure2D(t, 20, 1, 2, false, 1)
	if got2 != want2 {
		t.Errorf("2D clamped 20x1: model %d, simulator %d", got2, want2)
	}
}
