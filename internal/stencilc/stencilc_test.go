package stencilc

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/wse"
)

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		Spec9Point(), Spec5Point(), Spec7Point(), SpecSeismic25(), SpecHeat2D(), SpecHeat3D(),
		{Dim: 3, Points: Star, Widths: [3]int{2, 1, 8}},
		{Dim: 2, Points: Box, Widths: [3]int{3, 3, 0}, Precision: FP32, Boundary: stencil.Periodic},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	bad := []Spec{
		{},
		{Dim: 1, Points: Star, Widths: [3]int{1, 1, 1}},
		{Dim: 4, Points: Star, Widths: [3]int{1, 1, 1}},
		{Dim: 2, Points: Star, Widths: [3]int{0, 1, 0}},
		{Dim: 2, Points: Star, Widths: [3]int{1, MaxWidth + 1, 0}},
		{Dim: 3, Points: Star, Widths: [3]int{1, 1, 0}},
		{Dim: 3, Points: Shape(9), Widths: [3]int{1, 1, 1}},
		{Dim: 3, Points: Star, Widths: [3]int{1, 1, 1}, Precision: Precision(7)},
		{Dim: 3, Points: Star, Widths: [3]int{1, 1, 1}, Boundary: stencil.Boundary(5)},
		{Dim: 3, Points: Star, Widths: [3]int{1, 1, 1}, Reduce: Reduce(3)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
}

// TestUnsupportedSpecs pins the machine/host split: valid specs the
// lowering rejects must come back as *UnsupportedError (so callers can
// fall back to the host references), while structurally bad specs are
// plain errors.
func TestUnsupportedSpecs(t *testing.T) {
	mach := wse.New(wse.CS1(2, 2))
	defer mach.Close()
	m2 := stencil.Mesh2D{NX: 4, NY: 4}
	op9, _ := stencil.Random9(m2, 1.5, rand.New(rand.NewSource(1))).Normalize9()
	m3 := stencil.Mesh{NX: 2, NY: 2, NZ: 4}

	unsup2 := []Spec{
		{Dim: 2, Points: Box, Widths: [3]int{1, 1, 0}, Precision: FP32},
		{Dim: 2, Points: Box, Widths: [3]int{1, 1, 0}, Boundary: stencil.Periodic},
		{Dim: 2, Points: Star, Widths: [3]int{2, 1, 0}},
	}
	for _, s := range unsup2 {
		_, err := Compile2D(mach, s, op9, 2, 0)
		var ue *UnsupportedError
		if !errors.As(err, &ue) {
			t.Errorf("Compile2D(%+v) error = %v, want *UnsupportedError", s, err)
		}
	}

	star := stencil.NewOpStar(m3, [3]int{1, 1, 1})
	for i := range star.C {
		star.C[i] = 1
	}
	half := stencil.NewOpStarHalf(star)
	unsup3 := []Spec{
		{Dim: 3, Points: Star, Widths: [3]int{1, 1, 1}, Precision: FP32},
		{Dim: 3, Points: Star, Widths: [3]int{1, 1, 1}, Boundary: stencil.Periodic},
		{Dim: 3, Points: Box, Widths: [3]int{1, 1, 1}},
	}
	for _, s := range unsup3 {
		m := wse.New(wse.CS1(2, 2))
		_, err := Compile3D(m, s, half, 0, 0, 0)
		m.Close()
		var ue *UnsupportedError
		if !errors.As(err, &ue) {
			t.Errorf("Compile3D(%+v) error = %v, want *UnsupportedError", s, err)
		}
	}

	// Structurally invalid specs are plain errors, not UnsupportedError.
	if _, err := Compile2D(mach, Spec{}, op9, 2, 0); err == nil {
		t.Error("Compile2D(zero spec) = nil error")
	} else {
		var ue *UnsupportedError
		if errors.As(err, &ue) {
			t.Errorf("Compile2D(zero spec) = UnsupportedError %v, want plain validation error", err)
		}
	}
	// Dimension mismatches are caught.
	if _, err := Compile2D(mach, Spec7Point(), op9, 2, 0); err == nil {
		t.Error("Compile2D(3D spec) = nil error")
	}
}

func TestExchangeColorsDistinct(t *testing.T) {
	if !ExchangeColorsDistinct() {
		t.Fatal("directional exchange color invariants violated")
	}
}

// TestHaloColorTables states the property both lowerings rely on when
// they draw colors from the shared directional assignment: a halo
// direction's receive color is exactly what the facing neighbour sends
// (haloOut[opposite(d)] == haloTravel[d]), sends and receives on one
// link never share a channel, and the four receive (and four send)
// colors are pairwise distinct, so every subscription is separable.
func TestHaloColorTables(t *testing.T) {
	seenIn := map[int]bool{}
	seenOut := map[int]bool{}
	for d := HaloDir(0); d < NumHaloDirs; d++ {
		if haloOut[opposite(d)] != haloTravel[d] {
			t.Errorf("dir %d: receive color %d, but neighbour sends on %d", d, haloTravel[d], haloOut[opposite(d)])
		}
		if haloOut[d] == haloTravel[d] {
			t.Errorf("dir %d: send and receive share color %d", d, haloOut[d])
		}
		if seenIn[haloTravel[d]] {
			t.Errorf("dir %d: receive color %d reused", d, haloTravel[d])
		}
		if seenOut[haloOut[d]] {
			t.Errorf("dir %d: send color %d reused", d, haloOut[d])
		}
		seenIn[haloTravel[d]] = true
		seenOut[haloOut[d]] = true
		if a, o := axisOf(d), axisOf(opposite(d)); a != o {
			t.Errorf("dir %d: axis %d but opposite has axis %d", d, a, o)
		}
	}
	if len(seenIn) != NumExchangeColors || len(seenOut) != NumExchangeColors {
		t.Fatalf("halo tables use %d/%d colors, want %d", len(seenIn), len(seenOut), NumExchangeColors)
	}
}

// ---------------------------------------------------------------------
// Shared test helpers

func randomHalfVec(n int, rng *rand.Rand) []fp16.Float16 {
	out := make([]fp16.Float16, n)
	for i := range out {
		out[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	return out
}

// randomStarHalf builds a random unit-diagonal star operator on m with
// widths w, as the fp16 image the machine stores.
func randomStarHalf(m stencil.Mesh, w [3]int, rng *rand.Rand) *stencil.OpStarHalf {
	o := stencil.NewOpStar(m, w)
	fill := func(cols [][]float64) {
		for _, c := range cols {
			for i := range c {
				c[i] = rng.Float64()*2 - 1
			}
		}
	}
	fill(o.XP)
	fill(o.XM)
	fill(o.YP)
	fill(o.YM)
	fill(o.ZP)
	fill(o.ZM)
	for i := range o.C {
		o.C[i] = 1
	}
	return stencil.NewOpStarHalf(o)
}

// ExchangeColorsDistinct verifies the color invariants of the
// directional assignment at a tile: the color it sends on toward each
// neighbour differs from every color it receives on, and the four
// receive colors are pairwise distinct (so the four incoming streams
// are separable by subscription). The directional scheme makes this
// trivially true — each direction of travel owns a dedicated channel —
// but the property test states it as a contract, mirroring
// StencilColorsDistinct for the 3D tessellation.
func ExchangeColorsDistinct() bool {
	recv := []int{ColEast, ColWest, ColSouth, ColNorth}
	seen := map[int]bool{}
	for _, c := range recv {
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	// A tile sends toward its east neighbour on ColEast and receives
	// from it on ColWest, and symmetrically: outgoing != incoming on
	// every link.
	pairs := [][2]int{{ColEast, ColWest}, {ColWest, ColEast}, {ColSouth, ColNorth}, {ColNorth, ColSouth}}
	for _, p := range pairs {
		if p[0] == p[1] {
			return false
		}
	}
	return true
}
