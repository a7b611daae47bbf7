package perfmodel

import (
	"reflect"
	"testing"
)

// TestStencilApplyMatchesHaloClosedForm cross-checks the replay model
// against the independently derived width-1 closed form: for unit halo
// widths the compiled 3D program is the classic single-round exchange
// HaloSpMVCycles models, so the two perfmodel entries must agree
// everywhere. (Both are separately pinned to the simulator — this keeps
// them pinned to each other.)
func TestStencilApplyMatchesHaloClosedForm(t *testing.T) {
	for _, c := range []struct{ w, h, z int }{
		{1, 1, 4}, {2, 1, 4}, {1, 3, 8}, {2, 2, 4}, {3, 3, 4},
		{4, 3, 6}, {2, 2, 32}, {3, 3, 16}, {5, 2, 10}, {6, 6, 8},
		{25, 3, 4}, {40, 40, 6},
	} {
		got := StencilApply3D{W: c.w, H: c.h, Z: c.z, Widths: [3]int{1, 1, 1}}.Cycles()
		want := int64(HaloSpMVCycles(c.w, c.h, c.z, c.w, c.h))
		if got != want {
			t.Errorf("(%d,%d,%d): replay model %d, closed form %d", c.w, c.h, c.z, got, want)
		}
	}
}

// TestStencilApplyClampKeepsPlacement holds the horizon clamp to the
// placement: every tile of the reduced fabric has the stage list of the
// full-fabric tile it stands for (the same distance to the fabric edge,
// and to the mesh edge, on its side), so a placed fabric wider than the
// clamp keeps which of its sides border the mesh.
func TestStencilApplyClampKeepsPlacement(t *testing.T) {
	for _, s := range []StencilApply3D{
		{W: 25, H: 23, Z: 4, Widths: [3]int{1, 1, 1}, MeshX: 30, MeshY: 26, X0: 1, Y0: 0},
		{W: 24, H: 22, Z: 6, Widths: [3]int{2, 1, 2}, MeshX: 27, MeshY: 22, X0: 2, Y0: 0},
		{W: 30, H: 28, Z: 8, Widths: [3]int{4, 4, 4}, MeshX: 33, MeshY: 31, X0: 2, Y0: 1, SumSq: true},
		{W: 40, H: 3, Z: 4, Widths: [3]int{1, 1, 1}},
	} {
		c := s.clamped()
		if c.W >= s.W && c.H >= s.H {
			t.Fatalf("%+v: clamp to %dx%d reduced nothing", s, c.W, c.H)
		}
		horizon := max(s.Widths[0], s.Widths[1]) + 8
		full := func(i, n, cn int) int {
			if i <= horizon {
				return i
			}
			return i + n - cn
		}
		for y := 0; y < c.H; y++ {
			for x := 0; x < c.W; x++ {
				fx, fy := full(x, s.W, c.W), full(y, s.H, c.H)
				if got, want := c.Stages(x, y), s.Stages(fx, fy); !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v: clamped tile (%d,%d) stages %+v, full tile (%d,%d) %+v", s, x, y, got, fx, fy, want)
				}
			}
		}
	}
}

// TestStencilApplyWidthMonotone sanity-checks shape behaviour: wider
// halos and deeper columns never get cheaper.
func TestStencilApplyWidthMonotone(t *testing.T) {
	prev := int64(0)
	for wdt := 1; wdt <= 4; wdt++ {
		c := StencilApply3D{W: 5, H: 5, Z: 8, Widths: [3]int{wdt, wdt, wdt}}.Cycles()
		if c <= prev {
			t.Fatalf("width %d: %d cycles, not above width %d's %d", wdt, c, wdt-1, prev)
		}
		prev = c
	}
	prev = 0
	for _, z := range []int{4, 8, 16, 32} {
		c := StencilApply3D{W: 4, H: 4, Z: z, Widths: [3]int{2, 2, 2}}.Cycles()
		if c <= prev {
			t.Fatalf("z=%d: %d cycles, did not grow from %d", z, c, prev)
		}
		prev = c
	}
	if b4 := (StencilApply2D{W: 3, H: 3, B: 4, Points: 9}).Cycles(); b4 <= (StencilApply2D{W: 3, H: 3, B: 2, Points: 9}).Cycles() {
		t.Fatalf("2D b=4 (%d) not above b=2", b4)
	}
}
