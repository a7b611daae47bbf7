package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// These goldens pin the wafer programs' observable behaviour — results,
// residual histories, cycle counts and machine fingerprints — to the
// values the hand-written SpMV2DMachine / SpMV3DHalo generators
// produced before the stencilc compiler replaced them (the solvers now
// hold stencilc.Program2D / Program3D directly; the tests keep the old
// generators' names because their constants are the old generators').
// The refactor contract is bit-identity: the compiler must emit the same
// routes, memory layout, instruction sequence and thread schedule, so
// every constant below must survive it unchanged. If one of these
// fails after an intentional program change, the change is not a
// refactor — it altered the simulated machine's behaviour.

// fnv1a folds a stream of 64-bit values into a hash.
type fnv1a uint64

func newFNV() fnv1a { return 14695981039346656037 }

func (h *fnv1a) mix(v uint64) {
	const prime = 1099511628211
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= prime
		v >>= 8
	}
	*h = fnv1a(x)
}

func hashHalf(vs []fp16.Float16) uint64 {
	h := newFNV()
	for _, v := range vs {
		h.mix(uint64(v.Bits()))
	}
	return uint64(h)
}

func hashHistory(vs []float64) uint64 {
	h := newFNV()
	for _, v := range vs {
		h.mix(math.Float64bits(v))
	}
	return uint64(h)
}

func randomHalf(n int, rng *rand.Rand) []fp16.Float16 {
	out := make([]fp16.Float16, n)
	for i := range out {
		out[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	return out
}

func TestSpMV2DMachineGolden(t *testing.T) {
	const (
		wantCycles1 = int64(19)
		wantCycles2 = int64(19)
		wantHash1   = uint64(0x2011b6dd94e3e9d8)
		wantHash2   = uint64(0xedb49be6dda9f39e)
		wantFP      = uint64(0x8b387cb3409f770f)
	)
	m := stencil.Mesh2D{NX: 8, NY: 6}
	op, _ := stencil.Random9(m, 1.5, rand.New(rand.NewSource(3))).Normalize9()
	mach := wse.New(wse.CS1(4, 3))
	defer mach.Close()
	p, err := stencilc.Compile2D(mach, stencilc.Spec9Point(), op, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))

	p.LoadVector(randomHalf(m.N(), rng))
	cycles1, err := p.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	hash1 := hashHalf(p.Result())

	p.LoadVector(randomHalf(m.N(), rng))
	cycles2, err := p.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	hash2 := hashHalf(p.Result())
	fp := mach.Fingerprint()

	t.Logf("golden 2d: cycles1=%d cycles2=%d hash1=%#x hash2=%#x fp=%#x",
		cycles1, cycles2, hash1, hash2, fp)
	if cycles1 != wantCycles1 || cycles2 != wantCycles2 {
		t.Errorf("cycles = %d, %d; want %d, %d", cycles1, cycles2, wantCycles1, wantCycles2)
	}
	if hash1 != wantHash1 || hash2 != wantHash2 {
		t.Errorf("result hashes = %#x, %#x; want %#x, %#x", hash1, hash2, wantHash1, wantHash2)
	}
	if fp != wantFP {
		t.Errorf("fingerprint = %#x, want %#x", fp, wantFP)
	}
}

func TestSpMV3DHaloGolden(t *testing.T) {
	const (
		wantCycles = int64(32)
		wantHash   = uint64(0x72968f726a2620c8)
		wantFP     = uint64(0xfd3a5e245cb3c322)
	)
	m := stencil.Mesh{NX: 6, NY: 5, NZ: 8}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	norm, _ := op.Normalize()
	half := stencil.NewOp7Half(norm)
	mach := wse.New(wse.CS1(4, 3))
	defer mach.Close()
	p, err := stencilc.Compile3D(mach, stencilc.Spec7Point(), stencil.HalfFromOp7(half), 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < p.Tiles(); i++ {
		copy(p.Iterate(i), randomHalf(m.NZ, rng))
		for d := stencilc.HaloDir(0); d < stencilc.NumHaloDirs; d++ {
			copy(p.Halo(i, d, 1), randomHalf(m.NZ, rng))
		}
	}
	cycles, err := p.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	h := newFNV()
	for i := 0; i < p.Tiles(); i++ {
		h.mix(hashHalf(p.Result(i)))
	}
	fp := mach.Fingerprint()

	t.Logf("golden 3d: cycles=%d hash=%#x fp=%#x", cycles, uint64(h), fp)
	if cycles != wantCycles {
		t.Errorf("cycles = %d, want %d", cycles, wantCycles)
	}
	if uint64(h) != wantHash {
		t.Errorf("result hash = %#x, want %#x", uint64(h), wantHash)
	}
	if fp != wantFP {
		t.Errorf("fingerprint = %#x, want %#x", fp, wantFP)
	}
}

func TestBiCGStab2DWSEGolden(t *testing.T) {
	const (
		wantIters   = 7
		wantHistory = uint64(0xc5588119283b9b04)
		wantX       = uint64(0xe67623cf5b0e1510)
		wantCycles  = int64(520)
		wantFP      = uint64(0xe6126074a8c3865)
	)
	m := stencil.Mesh2D{NX: 6, NY: 4}
	op, _ := stencil.Random9(m, 1.6, rand.New(rand.NewSource(5))).Normalize9()
	mach := wse.New(wse.CS1(3, 2))
	defer mach.Close()
	s, err := NewBiCGStab2DWSE(mach, op, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	x16, st, err := s.Solve(randomHalf(m.N(), rng), WSEOptions{MaxIter: 8, Tol: 0})
	if err != nil {
		t.Fatal(err)
	}
	hist := hashHistory(st.History)
	xh := hashHalf(x16)
	fp := mach.Fingerprint()

	t.Logf("golden 2d solve: iters=%d hist=%#x x=%#x cycles=%d fp=%#x",
		st.Iterations, hist, xh, st.Cycles.Total(), fp)
	if st.Iterations != wantIters {
		t.Errorf("iterations = %d, want %d", st.Iterations, wantIters)
	}
	if hist != wantHistory || xh != wantX {
		t.Errorf("history/x hashes = %#x, %#x; want %#x, %#x", hist, xh, wantHistory, wantX)
	}
	if st.Cycles.Total() != wantCycles {
		t.Errorf("cycles = %d, want %d", st.Cycles.Total(), wantCycles)
	}
	if fp != wantFP {
		t.Errorf("fingerprint = %#x, want %#x", fp, wantFP)
	}
}

func TestBiCGStabWSEHaloGolden(t *testing.T) {
	const (
		wantIters   = 6
		wantHistory = uint64(0x46043cfb9e3cc090)
		wantX       = uint64(0xfd5a482ab8ef82d2)
		wantCycles  = int64(816)
		wantFP      = uint64(0x65db8a9c541f4a72)
	)
	m := stencil.Mesh{NX: 4, NY: 3, NZ: 8}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	norm, _ := op.Normalize()
	mach := wse.New(wse.CS1(4, 3))
	defer mach.Close()
	s, err := newHaloSolver(mach, stencil.NewOp7Half(norm))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	x16, st, err := s.Solve(randomHalf(m.N(), rng), WSEOptions{MaxIter: 6, Tol: 0})
	if err != nil {
		t.Fatal(err)
	}
	hist := hashHistory(st.History)
	xh := hashHalf(x16)
	fp := mach.Fingerprint()

	t.Logf("golden 3d solve: iters=%d hist=%#x x=%#x cycles=%d fp=%#x",
		st.Iterations, hist, xh, st.Cycles.Total(), fp)
	if st.Iterations != wantIters {
		t.Errorf("iterations = %d, want %d", st.Iterations, wantIters)
	}
	if hist != wantHistory || xh != wantX {
		t.Errorf("history/x hashes = %#x, %#x; want %#x, %#x", hist, xh, wantHistory, wantX)
	}
	if st.Cycles.Total() != wantCycles {
		t.Errorf("cycles = %d, want %d", st.Cycles.Total(), wantCycles)
	}
	if fp != wantFP {
		t.Errorf("fingerprint = %#x, want %#x", fp, wantFP)
	}
}
