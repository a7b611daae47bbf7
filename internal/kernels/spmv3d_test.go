package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/wse"
)

func TestBroadcastColorTessellation(t *testing.T) {
	// Figure 5's property must hold at every tile of any fabric.
	for y := 0; y < 30; y++ {
		for x := 0; x < 30; x++ {
			if !StencilColorsDistinct(x, y) {
				t.Fatalf("color clash at (%d,%d)", x, y)
			}
		}
	}
}

// randomHalfVector returns n fp16 values uniform in (-1, 1).
func randomHalfVector(n int, rng *rand.Rand) []fp16.Float16 {
	v := make([]fp16.Float16, n)
	for i := range v {
		v[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	return v
}

// newSpMVProgram builds a machine + program for a random diagonally
// dominant normalized operator.
func newSpMVProgram(t *testing.T, nx, ny, nz int, seed int64) (*SpMV3D, *stencil.Op7Half, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	op := stencil.RandomDiagDominant(m, 1.5, rng)
	norm, _ := op.Normalize()
	h := stencil.NewOp7Half(norm)
	mach := wse.New(wse.CS1(nx, ny))
	p, err := NewSpMV3D(mach, h)
	if err != nil {
		t.Fatal(err)
	}
	return p, h, rng
}

// spmvErrorBound is the elementwise tolerance between the wafer result
// (nondeterministic fp16 accumulation order) and the sequential fp16
// reference: ~7 roundings of magnitude ≤ sum of |terms|.
func spmvErrorBound(h *stencil.Op7Half, v []fp16.Float16, i int) float64 {
	m := h.M
	x, y, z := m.Coords(i)
	sum := math.Abs(v[i].Float64())
	add := func(c fp16.Float16, nx, ny, nz int) {
		if m.In(nx, ny, nz) {
			sum += math.Abs(c.Float64() * v[m.Index(nx, ny, nz)].Float64())
		}
	}
	add(h.XP[i], x+1, y, z)
	add(h.XM[i], x-1, y, z)
	add(h.YP[i], x, y+1, z)
	add(h.YM[i], x, y-1, z)
	add(h.ZP[i], x, y, z+1)
	add(h.ZM[i], x, y, z-1)
	return 8 * fp16.Epsilon * sum
}

func checkSpMVResult(t *testing.T, p *SpMV3D, h *stencil.Op7Half, v []fp16.Float16) {
	t.Helper()
	want := make([]fp16.Float16, len(v))
	h.Apply(want, v)
	got := p.Result()
	bad := 0
	for i := range want {
		tol := spmvErrorBound(h, v, i)
		if d := math.Abs(got[i].Float64() - want[i].Float64()); d > tol {
			bad++
			if bad < 5 {
				x, y, z := h.M.Coords(i)
				t.Errorf("u[%d] (tile %d,%d z=%d) = %v, want %v (±%g)",
					i, x, y, z, got[i], want[i], tol)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d/%d elements out of tolerance", bad, len(want))
	}
}

func TestSpMV3DMatchesReference(t *testing.T) {
	p, h, rng := newSpMVProgram(t, 4, 3, 8, 11)
	v := make([]fp16.Float16, h.M.N())
	for i := range v {
		v[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	p.LoadVector(v)
	cycles, err := p.Run(100000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	t.Logf("SpMV on %v: %d cycles (%.1f cycles per z-element)", h.M, cycles, float64(cycles)/float64(h.M.NZ))
	checkSpMVResult(t, p, h, v)
}

func TestSpMV3DRepeatedApplications(t *testing.T) {
	// The program must be reusable: BiCGStab applies it twice per
	// iteration with different vectors.
	p, h, rng := newSpMVProgram(t, 3, 3, 6, 5)
	for rep := 0; rep < 3; rep++ {
		v := make([]fp16.Float16, h.M.N())
		for i := range v {
			v[i] = fp16.FromFloat64(rng.NormFloat64())
		}
		p.LoadVector(v)
		if _, err := p.Run(100000); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		checkSpMVResult(t, p, h, v)
	}
}

func TestSpMV3DSingleTile(t *testing.T) {
	// A 1×1 fabric exercises only the z-direction and loopback paths.
	p, h, rng := newSpMVProgram(t, 1, 1, 16, 7)
	v := make([]fp16.Float16, h.M.N())
	for i := range v {
		v[i] = fp16.FromFloat64(rng.Float64())
	}
	p.LoadVector(v)
	if _, err := p.Run(100000); err != nil {
		t.Fatal(err)
	}
	checkSpMVResult(t, p, h, v)
}

func TestSpMV3DPoisson(t *testing.T) {
	// The paper's actual operator class: diagonally preconditioned
	// Poisson, uniform coefficients −1/6.
	rng := rand.New(rand.NewSource(13))
	m := stencil.Mesh{NX: 5, NY: 4, NZ: 10}
	norm, _ := stencil.Poisson(m, 1).Normalize()
	h := stencil.NewOp7Half(norm)
	mach := wse.New(wse.CS1(m.NX, m.NY))
	p, err := NewSpMV3D(mach, h)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]fp16.Float16, m.N())
	for i := range v {
		v[i] = fp16.FromFloat64(rng.Float64())
	}
	p.LoadVector(v)
	if _, err := p.Run(100000); err != nil {
		t.Fatal(err)
	}
	checkSpMVResult(t, p, h, v)
}

func TestSpMV3DZMustBeEven(t *testing.T) {
	m := stencil.Mesh{NX: 2, NY: 2, NZ: 5}
	norm, _ := stencil.Poisson(m, 1).Normalize()
	mach := wse.New(wse.CS1(2, 2))
	if _, err := NewSpMV3D(mach, stencil.NewOp7Half(norm)); err == nil {
		t.Error("odd Z should be rejected")
	}
}

func TestSpMV3DMeshFabricMismatch(t *testing.T) {
	m := stencil.Mesh{NX: 3, NY: 2, NZ: 4}
	norm, _ := stencil.Poisson(m, 1).Normalize()
	mach := wse.New(wse.CS1(2, 2))
	if _, err := NewSpMV3D(mach, stencil.NewOp7Half(norm)); err == nil {
		t.Error("mesh/fabric mismatch should be rejected")
	}
}

func TestSpMV3DCycleScaling(t *testing.T) {
	// Cycles per application should scale ~linearly in Z (stream-bound),
	// the relation the performance model extrapolates with.
	if testing.Short() {
		t.Skip("scaling sweep in short mode")
	}
	cyclesAt := func(z int) float64 {
		p, h, rng := newSpMVProgram(t, 4, 4, z, 3)
		v := make([]fp16.Float16, h.M.N())
		for i := range v {
			v[i] = fp16.FromFloat64(rng.Float64())
		}
		p.LoadVector(v)
		c, err := p.Run(1000000)
		if err != nil {
			t.Fatal(err)
		}
		return float64(c)
	}
	c32 := cyclesAt(32)
	c128 := cyclesAt(128)
	ratio := c128 / c32
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("cycles(Z=128)/cycles(Z=32) = %.2f, want ~4 (linear in Z)", ratio)
	}
}

// TestSpMV3DIssueCounters holds one 16×16×256 Listing 1 application (the
// benchmark's deep_z shape) to what its core steps did, so that a step
// that went back to polling fails as a count and not only as a slower
// run. The same application under the core step before PR 20 made
// 249,535 core steps, 1,827,061 Instr.Step calls — 1,231,933 of them
// calls of lane-consuming instructions that found nothing to do — and
// 1,013,732 Fab.Recv probes for 155,648 words.
func TestSpMV3DIssueCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := stencil.Mesh{NX: 16, NY: 16, NZ: 256}
	norm, _ := stencil.RandomDiagDominant(m, 1.5, rng).Normalize()
	cfg := wse.CS1(m.NX, m.NY)
	cfg.Engine = wse.EngineSequential // fast-forward's jumps bypass Core.step
	mach := wse.New(cfg)
	p, err := NewSpMV3D(mach, stencil.NewOp7Half(norm))
	if err != nil {
		t.Fatal(err)
	}
	p.LoadVector(randomHalfVector(m.N(), rng))
	if _, err := p.Run(1 << 22); err != nil {
		t.Fatal(err)
	}
	const parentLaneIdle = 1231933
	s := mach.IssueStats()
	t.Logf("%+v", s)
	if s.CoreSteps != 249535 || s.RxWords != 155648 {
		t.Errorf("core steps %d, rx words %d: want 249535, 155648 (the simulated run itself changed)", s.CoreSteps, s.RxWords)
	}
	// Every look at a receive buffer either yields a word or finds its
	// subscribers full; none finds the buffer empty.
	if s.RxProbes != s.RxWords+s.RxStalls {
		t.Errorf("rx probes %d != rx words %d + subscriber-full retries %d", s.RxProbes, s.RxWords, s.RxStalls)
	}
	if laneIdle := s.IdleCalls - s.ZeroLaneCalls; laneIdle > parentLaneIdle/2 {
		t.Errorf("idle calls of lane-consuming instructions: %d, more than half the polling step's %d", laneIdle, parentLaneIdle)
	}
}

// TestListing1BuildAllocsPerTile bounds what building the Listing 1
// solver and capturing its pristine state allocate per tile: the tiles,
// their tasks and thread tables, the shared handlers and the snapshot
// all come from slabs, so an added tile costs only its arena's growth
// (once for the program, once for the solver vectors) and a share of
// the AllReduce's line paths.
func TestListing1BuildAllocsPerTile(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	allocs := func(nx, ny int) float64 {
		mesh := stencil.Mesh{NX: nx, NY: ny, NZ: 8}
		norm, _ := stencil.RandomDiagDominant(mesh, 1.5, rand.New(rand.NewSource(1))).Normalize()
		h := stencil.NewOp7Half(norm)
		const runs = 3
		ms := make([]*wse.Machine, runs+1) // AllocsPerRun warms up with one more call
		for i := range ms {
			ms[i] = wse.New(wse.CS1(nx, ny))
			t.Cleanup(ms[i].Close)
		}
		var err error
		n := testing.AllocsPerRun(runs, func() {
			m := ms[0]
			ms = ms[1:]
			s, e := NewBiCGStabWSE(m, h)
			if e == nil {
				_, e = s.Pristine()
			}
			if e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	small, large := allocs(16, 16), allocs(32, 32)
	slope := (large - small) / (32*32 - 16*16)
	t.Logf("allocations: %.0f at 16×16×8, %.0f at 32×32×8 (%.2f per added tile)", small, large, slope)
	if slope > 3 {
		t.Errorf("%.2f allocations per added tile, want at most 3", slope)
	}
}

// Result gathers the global result u.
func (p *SpMV3D) Result() []fp16.Float16 {
	m := p.Mesh
	out := make([]fp16.Float16, m.N())
	for i := range p.tiles {
		p.CopyResult(i, out[m.Index(p.tiles[i].x, p.tiles[i].y, 0):][:m.NZ])
	}
	return out
}
