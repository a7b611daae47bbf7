package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// FuzzSpMV2DEquivalence fuzzes the 2D block-halo wafer program's
// determinism contract: a random normalized 9-point operator and
// iterate on a random tile grid and block size are built identically on
// a sequential and a sharded machine, armed, and stepped in lockstep —
// the complete per-cycle Machine.Fingerprint must match every cycle,
// the results must be bitwise equal, and both machines must agree the
// program drained. It also cross-checks the machine result against the
// functional reference stencilc.Reference2D, whose rounding order the
// wafer program reproduces exactly. Seed corpus in testdata/fuzz/FuzzSpMV2DEquivalence;
// CI runs this in fuzz-smoke.
func FuzzSpMV2DEquivalence(f *testing.F) {
	f.Add(int64(1), uint64(0x0202), uint64(0))
	f.Add(int64(7), uint64(0x0103), uint64(1))
	f.Add(int64(-5), uint64(0x0401), uint64(2))
	f.Add(int64(99), uint64(0x0303), uint64(4))
	f.Fuzz(func(t *testing.T, seed int64, dims, bsel uint64) {
		tx := int(dims&0xff)%4 + 1
		ty := int((dims>>8)&0xff)%4 + 1
		b := 2 * (int(bsel%3) + 1) // 2, 4, 6
		rng := rand.New(rand.NewSource(seed))
		workers := rng.Intn(6) + 2

		m := stencil.Mesh2D{NX: tx * b, NY: ty * b}
		norm, _ := stencil.Random9(m, 1.3, rng).Normalize9()
		src := randomHalfVector(m.N(), rng)

		build := func(wk int) (*wse.Machine, *stencilc.Program2D) {
			cfg := wse.CS1(tx, ty)
			cfg.Workers = wk
			mach := wse.New(cfg)
			prog, err := stencilc.Compile2D(mach, stencilc.Spec9Point(), norm, b, 0)
			if err != nil {
				t.Fatal(err)
			}
			prog.LoadVector(src)
			prog.Arm()
			return mach, prog
		}
		mseq, pseq := build(1)
		defer mseq.Close()
		mshd, pshd := build(workers)
		defer mshd.Close()
		if mseq.Fab.StepperName() == mshd.Fab.StepperName() {
			t.Fatalf("engine selection broken: both %q", mseq.Fab.StepperName())
		}

		maxCycles := 64*b*(tx+ty) + 512
		for cyc := 0; cyc < maxCycles; cyc++ {
			mseq.Step()
			mshd.Step()
			if fa, fb := mseq.Fingerprint(), mshd.Fingerprint(); fa != fb {
				t.Fatalf("cycle %d: machine fingerprints diverge: seq %#x %s %#x",
					cyc, fa, mshd.Fab.StepperName(), fb)
			}
			if mseq.AllIdle() {
				break
			}
		}
		if a, b2 := mseq.AllIdle(), mshd.AllIdle(); !a || !b2 {
			t.Fatalf("program did not drain in %d cycles: seq %v sharded %v", maxCycles, a, b2)
		}

		ra, rb := pseq.Result(), pshd.Result()
		refDst := apply2D(t, norm, b, src)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("result element %d differs across engines: %v vs %v", i, ra[i], rb[i])
			}
			if ra[i] != refDst[i] {
				t.Fatalf("result element %d differs from functional reference: %v vs %v", i, ra[i], refDst[i])
			}
		}
	})
}
