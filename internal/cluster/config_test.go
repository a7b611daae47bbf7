package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stencil"
)

// Validate checks a config reproduces the two published anchors within
// tol (fractional).
func (c Config) Validate(tol float64) error {
	t1024 := c.IterationTime(Fig8Mesh, 1024).Total()
	t16k := c.IterationTime(Fig8Mesh, 16384).Total()
	if math.Abs(t1024-75e-3)/75e-3 > tol {
		return fmt.Errorf("cluster: 600³ @1024 = %.1f ms, published 75 ms", t1024*1e3)
	}
	if math.Abs(t16k-6e-3)/6e-3 > tol {
		return fmt.Errorf("cluster: 600³ @16K = %.2f ms, published ~6 ms", t16k*1e3)
	}
	return nil
}

// TestValidateErrorBranches exercises both published-anchor checks of
// Config.Validate: a config that misses the 1,024-core anchor, one
// that hits it but misses the 16K-core anchor, and the calibrated
// config passing both.
func TestValidateErrorBranches(t *testing.T) {
	good := Joule()
	if err := good.Validate(0.15); err != nil {
		t.Fatalf("calibrated config rejected: %v", err)
	}

	// Halving memory bandwidth blows the 1,024-core anchor (memory
	// bound there).
	slowMem := Joule()
	slowMem.MemBWPerNode /= 2
	if err := slowMem.Validate(0.15); err == nil {
		t.Error("halved memory bandwidth passed validation")
	}

	// Inflating only the per-rank collective cost leaves 1,024 cores
	// within tolerance but wrecks 16K cores, hitting the second branch.
	slowColl := Joule()
	slowColl.CollPerRank *= 10
	t1024 := slowColl.IterationTime(Fig8Mesh, 1024).Total()
	if math.Abs(t1024-75e-3)/75e-3 > 0.15 {
		t.Fatalf("test premise broken: 1024-core time %v drifted out of tolerance", t1024)
	}
	if err := slowColl.Validate(0.15); err == nil {
		t.Error("10× collective jitter passed validation")
	}
}

// TestDecompose3DEdgeCases covers the degenerate decompositions the
// timing model meets: one rank, prime rank counts on non-dividing
// meshes, and ranks exceeding a mesh dimension.
func TestDecompose3DEdgeCases(t *testing.T) {
	m := stencil.Mesh{NX: 8, NY: 8, NZ: 8}
	if px, py, pz := Decompose3D(m, 1); px != 1 || py != 1 || pz != 1 {
		t.Errorf("1 rank: %d×%d×%d", px, py, pz)
	}
	// A prime count on a non-dividing mesh still factors (7 = 7×1×1)
	// even though no axis divides evenly: the timing model only needs
	// the factors.
	px, py, pz := Decompose3D(stencil.Mesh{NX: 10, NY: 10, NZ: 10}, 7)
	if px*py*pz != 7 {
		t.Errorf("7 ranks: %d×%d×%d does not multiply to 7", px, py, pz)
	}
	// More ranks than any single axis: must spread across axes.
	px, py, pz = Decompose3D(m, 64)
	if px*py*pz != 64 || px > 8 || py > 8 || pz > 8 {
		t.Errorf("64 ranks on 8³: %d×%d×%d", px, py, pz)
	}
}
