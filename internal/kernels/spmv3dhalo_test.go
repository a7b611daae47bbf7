package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// newHaloProgram builds a machine covering the whole mesh plus the
// reference operator.
func newHaloProgram(t *testing.T, nx, ny, nz int, seed int64) (*stencilc.Program3D, *stencil.Op7Half, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	op := stencil.RandomDiagDominant(m, 1.5, rng)
	norm, _ := op.Normalize()
	h := stencil.NewOp7Half(norm)
	mach := wse.New(wse.CS1(nx, ny))
	t.Cleanup(mach.Close)
	p, err := stencilc.Compile3D(mach, stencilc.Spec7Point(), stencil.HalfFromOp7(h), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p, h, rng
}

func loadHaloIterate(p *stencilc.Program3D, v []fp16.Float16) {
	m := p.Mesh
	for i := 0; i < p.Tiles(); i++ {
		gx, gy := p.GlobalCoord(i)
		col := p.Iterate(i)
		for z := 0; z < m.NZ; z++ {
			col[z] = v[m.Index(gx, gy, z)]
		}
	}
}

func gatherHaloResult(p *stencilc.Program3D, out []fp16.Float16) {
	m := p.Mesh
	for i := 0; i < p.Tiles(); i++ {
		gx, gy := p.GlobalCoord(i)
		col := p.Result(i)
		for z := 0; z < m.NZ; z++ {
			out[m.Index(gx, gy, z)] = col[z]
		}
	}
}

// TestSpMV3DHaloBitwiseReference is the kernel's headline contract: the
// cycle-simulated result equals stencil.Op7Half.Apply bit for bit —
// not within an error bound, as the Listing 1 kernel's
// timing-dependent FIFO accumulation forces, but exactly, because the
// compute phase replays the reference's rounding order as a fixed
// instruction sequence. This is what makes multiwafer decompositions
// bit-invariant.
func TestSpMV3DHaloBitwiseReference(t *testing.T) {
	p, h, rng := newHaloProgram(t, 5, 4, 8, 21)
	v := randomHalfVector(h.M.N(), rng)
	loadHaloIterate(p, v)
	cycles, err := p.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("halo SpMV on %v: %d cycles", h.M, cycles)

	want := make([]fp16.Float16, h.M.N())
	h.Apply(want, v)
	got := make([]fp16.Float16, h.M.N())
	gatherHaloResult(p, got)
	for i := range want {
		if got[i] != want[i] {
			x, y, z := h.M.Coords(i)
			t.Fatalf("u[%d] (tile %d,%d z=%d) = %v (bits %04x), want %v (bits %04x)",
				i, x, y, z, got[i], got[i].Bits(), want[i], want[i].Bits())
		}
	}
}

// TestSpMV3DHaloSplitBitwise runs the same mesh as two half-fabrics
// with host-injected inter-wafer halos and requires the combined result
// to stay bitwise equal to the reference — the decomposition-invariance
// half of the contract, without the solver on top.
func TestSpMV3DHaloSplitBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := stencil.Mesh{NX: 6, NY: 4, NZ: 10}
	op := stencil.RandomDiagDominant(m, 1.5, rng)
	norm, _ := op.Normalize()
	h := stencil.NewOp7Half(norm)

	left := wse.New(wse.CS1(3, 4))
	right := wse.New(wse.CS1(3, 4))
	defer left.Close()
	defer right.Close()
	pl, err := stencilc.Compile3D(left, stencilc.Spec7Point(), stencil.HalfFromOp7(h), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := stencilc.Compile3D(right, stencilc.Spec7Point(), stencil.HalfFromOp7(h), 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	v := randomHalfVector(m.N(), rng)
	loadHaloIterate(pl, v)
	loadHaloIterate(pr, v)

	// Host edge I/O: ship the boundary columns across the cut at x=3.
	for y := 0; y < 4; y++ {
		li := y*3 + 2 // left tile (2, y) needs the +x halo from right tile (0, y)
		ri := y * 3
		copy(pl.Halo(li, stencilc.HaloXP, 1), pr.Iterate(ri))
		copy(pr.Halo(ri, stencilc.HaloXM, 1), pl.Iterate(li))
	}
	if _, err := pl.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Run(1 << 20); err != nil {
		t.Fatal(err)
	}

	want := make([]fp16.Float16, m.N())
	h.Apply(want, v)
	got := make([]fp16.Float16, m.N())
	gatherHaloResult(pl, got)
	gatherHaloResult(pr, got)
	for i := range want {
		if got[i] != want[i] {
			x, y, z := m.Coords(i)
			t.Fatalf("split u[%d] (%d,%d,%d) = %04x, want %04x", i, x, y, z, got[i].Bits(), want[i].Bits())
		}
	}
}

// TestSpMV3DHaloRepeatedApplications pins reuse: the solver applies the
// program twice per iteration with different vectors.
func TestSpMV3DHaloRepeatedApplications(t *testing.T) {
	p, h, rng := newHaloProgram(t, 3, 3, 6, 5)
	for rep := 0; rep < 3; rep++ {
		v := randomHalfVector(h.M.N(), rng)
		loadHaloIterate(p, v)
		if _, err := p.Run(1 << 20); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		want := make([]fp16.Float16, h.M.N())
		h.Apply(want, v)
		got := make([]fp16.Float16, h.M.N())
		gatherHaloResult(p, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d: u[%d] = %04x, want %04x", rep, i, got[i].Bits(), want[i].Bits())
			}
		}
	}
}

// TestSpMV3DHaloEngineEquivalence pins the sequential and sharded
// engines to bitwise-equal results and equal cycle counts.
func TestSpMV3DHaloEngineEquivalence(t *testing.T) {
	run := func(workers int) ([]fp16.Float16, int64) {
		rng := rand.New(rand.NewSource(9))
		m := stencil.Mesh{NX: 6, NY: 6, NZ: 8}
		op := stencil.RandomDiagDominant(m, 1.5, rng)
		norm, _ := op.Normalize()
		h := stencil.NewOp7Half(norm)
		cfg := wse.CS1(6, 6)
		cfg.Workers = workers
		mach := wse.New(cfg)
		defer mach.Close()
		p, err := stencilc.Compile3D(mach, stencilc.Spec7Point(), stencil.HalfFromOp7(h), 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		v := randomHalfVector(m.N(), rng)
		loadHaloIterate(p, v)
		cyc, err := p.Run(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]fp16.Float16, m.N())
		gatherHaloResult(p, out)
		return out, cyc
	}
	seq, cseq := run(1)
	shr, cshr := run(4)
	if cseq != cshr {
		t.Fatalf("cycle counts differ: seq %d, sharded %d", cseq, cshr)
	}
	for i := range seq {
		if seq[i] != shr[i] {
			t.Fatalf("engines differ at %d: %04x vs %04x", i, seq[i].Bits(), shr[i].Bits())
		}
	}
}

func TestSpMV3DHaloRejects(t *testing.T) {
	m := stencil.Mesh{NX: 4, NY: 4, NZ: 5}
	norm, _ := stencil.Poisson(m, 1).Normalize()
	mach := wse.New(wse.CS1(4, 4))
	defer mach.Close()
	if _, err := stencilc.Compile3D(mach, stencilc.Spec7Point(), stencil.HalfFromOp7(stencil.NewOp7Half(norm)), 0, 0, 0); err == nil {
		t.Error("odd Z should be rejected")
	}
	m2 := stencil.Mesh{NX: 4, NY: 4, NZ: 6}
	norm2, _ := stencil.Poisson(m2, 1).Normalize()
	mach2 := wse.New(wse.CS1(4, 4))
	defer mach2.Close()
	if _, err := stencilc.Compile3D(mach2, stencilc.Spec7Point(), stencil.HalfFromOp7(stencil.NewOp7Half(norm2)), 1, 0, 0); err == nil {
		t.Error("fabric exceeding the mesh should be rejected")
	}
}
