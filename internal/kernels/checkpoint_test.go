package kernels

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// TestCheckpointResume is the crash-recovery golden: a solve that is
// checkpointed, "crashed" (machine discarded), and resumed on a freshly
// constructed machine — same or different stepping engine — must
// reproduce the uninterrupted solve's residual history, solution,
// cycle account and final machine Fingerprint bit for bit. Both wafer
// SpMV engines (Listing 1 and the block-halo variant) are covered.
func TestCheckpointResume(t *testing.T) {
	const iters = 9 // both engines run this many iterations breakdown-free
	const every = 4
	m := stencil.Mesh{NX: 4, NY: 4, NZ: 8}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1.0, 0.1)
	norm, diag := op.Normalize()
	rng := rand.New(rand.NewSource(11))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}
	b64 := make([]float64, m.N())
	op.Apply(b64, xe)
	b16 := fp16.FromFloat64Slice(stencil.ScaleRHS(b64, diag))
	h := stencil.NewOp7Half(norm)

	engines := []struct {
		name string
		mk   func(mach *wse.Machine) (wseSolver, error)
	}{
		{"listing1", func(mach *wse.Machine) (wseSolver, error) { return NewBiCGStabWSE(mach, h) }},
		{"halo", func(mach *wse.Machine) (wseSolver, error) { return newHaloSolver(mach, h) }},
	}
	// A leg is an engine and its shard count; "sharded" is fast-forward
	// on four shards with the parallel path forced.
	type leg struct {
		name   string
		e      wse.Engine
		shards int
	}
	seq := leg{"seq", wse.EngineSequential, 0}
	ff := leg{"fastforward", wse.EngineFastForward, 0}
	sharded := leg{"sharded", wse.EngineFastForward, 4}
	newMach := func(l leg) *wse.Machine {
		cfg := wse.CS1(m.NX, m.NY)
		cfg.Engine, cfg.Workers = l.e, l.shards
		mach := wse.New(cfg)
		if l.shards > 1 {
			fabric.ForceParallel(mach.Fab)
		}
		return mach
	}

	// The snapshot cross-engine matrix: checkpoints cut mid-solve under
	// one stepping engine are restored and finished under others, and
	// every combination must land on the uninterrupted reference solve
	// bit for bit — residual history, solution, cycle account, final
	// machine fingerprint. The sharded capture gets the full resume
	// matrix; the sequential capture pins the reverse direction
	// (snapshot under sequential, restore on shards) and the upgrade
	// path of a checkpoint spooled when the default engine was
	// sequential, resumed under today's fast-forward default; the
	// fast-forward capture pins the way back to the reference engine.
	captures := []struct {
		eng    leg
		resume []leg
	}{
		{seq, []leg{sharded, ff}},
		{sharded, []leg{seq, sharded, ff}},
		{ff, []leg{seq}},
	}

	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			// Uninterrupted reference solve.
			mach0 := newMach(seq)
			defer mach0.Close()
			w0, err := eng.mk(mach0)
			if err != nil {
				t.Fatal(err)
			}
			x0, st0, err := w0.Solve(b16, WSEOptions{MaxIter: iters})
			if err != nil {
				t.Fatal(err)
			}
			if st0.Breakdown != "" {
				t.Fatalf("reference solve broke down (%q); pick a problem that runs all %d iterations", st0.Breakdown, iters)
			}
			if len(st0.History) != iters {
				t.Fatalf("reference history has %d entries, want %d", len(st0.History), iters)
			}

			for _, cap := range captures {
				t.Run("cap_"+cap.eng.name, func(t *testing.T) {
					// Checkpointing must be an observation, not a perturbation:
					// the same solve with checkpoints enabled matches the
					// reference — which, for a sharded or fast-forward capture,
					// also makes the whole solve an engine-equivalence check.
					mach1 := newMach(cap.eng)
					defer mach1.Close()
					w1, err := eng.mk(mach1)
					if err != nil {
						t.Fatal(err)
					}
					var blobs [][]byte
					x1, st1, err := w1.Solve(b16, WSEOptions{MaxIter: iters, CheckpointEvery: every,
						Checkpoint: func(b []byte) error {
							blobs = append(blobs, append([]byte{}, b...))
							return nil
						}})
					if err != nil {
						t.Fatal(err)
					}
					if want := (iters - 1) / every; len(blobs) != want {
						t.Fatalf("captured %d checkpoints, want %d", len(blobs), want)
					}
					compareRuns(t, "checkpointed", x1, st1, x0, st0)
					if f0, f1 := mach0.Fingerprint(), mach1.Fingerprint(); f0 != f1 {
						t.Errorf("checkpointing perturbed the machine: fingerprint %#x vs %#x", f1, f0)
					}

					// Crash and resume: every captured checkpoint, restored
					// onto a fresh machine under every resume engine, must
					// finish the solve bit-identically.
					for bi, blob := range blobs {
						for _, re := range cap.resume {
							t.Run(fmt.Sprintf("blob%d_%s", bi, re.name), func(t *testing.T) {
								mach2 := newMach(re)
								defer mach2.Close()
								w2, err := eng.mk(mach2)
								if err != nil {
									t.Fatal(err)
								}
								x2, st2, err := w2.Solve(b16, WSEOptions{MaxIter: iters, Resume: blob})
								if err != nil {
									t.Fatal(err)
								}
								compareRuns(t, "resumed", x2, st2, x0, st0)
								if f0, f2 := mach0.Fingerprint(), mach2.Fingerprint(); f0 != f2 {
									t.Errorf("resumed machine fingerprint %#x, uninterrupted solve has %#x", f2, f0)
								}
							})
						}
					}
				})
			}
		})
	}
}

// compareRuns requires two solves to agree bit for bit: residual
// history, solution, and the deterministic cycle account.
func compareRuns(t *testing.T, name string, x []fp16.Float16, st WSEStats, xRef []fp16.Float16, stRef WSEStats) {
	t.Helper()
	if st.Breakdown != stRef.Breakdown || st.Iterations != stRef.Iterations || st.Converged != stRef.Converged {
		t.Errorf("%s: status (%d, %v, %q), reference (%d, %v, %q)", name,
			st.Iterations, st.Converged, st.Breakdown, stRef.Iterations, stRef.Converged, stRef.Breakdown)
	}
	if len(st.History) != len(stRef.History) {
		t.Fatalf("%s: %d history entries, reference has %d", name, len(st.History), len(stRef.History))
	}
	for i := range stRef.History {
		if math.Float64bits(st.History[i]) != math.Float64bits(stRef.History[i]) {
			t.Errorf("%s: history[%d] = %.17g, reference has %.17g", name, i, st.History[i], stRef.History[i])
		}
	}
	for i := range xRef {
		if x[i].Bits() != xRef[i].Bits() {
			t.Fatalf("%s: x[%d] = %#x, reference has %#x", name, i, x[i].Bits(), xRef[i].Bits())
		}
	}
	if st.Cycles != stRef.Cycles {
		t.Errorf("%s: cycle account %+v, reference %+v", name, st.Cycles, stRef.Cycles)
	}
	if st.SetupCycles != stRef.SetupCycles {
		t.Errorf("%s: setup cycles %d, reference %d", name, st.SetupCycles, stRef.SetupCycles)
	}
	if math.Float64bits(st.MaxARDrift) != math.Float64bits(stRef.MaxARDrift) {
		t.Errorf("%s: max AllReduce drift %g, reference %g", name, st.MaxARDrift, stRef.MaxARDrift)
	}
}

// TestCheckpointErrors pins the checkpoint/resume refusal paths.
func TestCheckpointErrors(t *testing.T) {
	m := stencil.Mesh{NX: 2, NY: 2, NZ: 4}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1.0, 0.05)
	norm, diag := op.Normalize()
	b64 := make([]float64, m.N())
	for i := range b64 {
		b64[i] = 1
	}
	b16 := fp16.FromFloat64Slice(stencil.ScaleRHS(b64, diag))
	h := stencil.NewOp7Half(norm)

	// A checkpoint callback error aborts the solve, wrapped.
	mach := wse.New(wse.CS1(m.NX, m.NY))
	defer mach.Close()
	w, err := NewBiCGStabWSE(mach, h)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("disk full")
	var blob []byte
	_, _, err = w.Solve(b16, WSEOptions{MaxIter: 6, CheckpointEvery: 2,
		Checkpoint: func(b []byte) error {
			blob = append([]byte{}, b...)
			return sentinel
		}})
	if !errors.Is(err, sentinel) {
		t.Errorf("checkpoint callback error not propagated: %v", err)
	}
	if blob == nil {
		t.Fatal("no checkpoint captured")
	}

	// Corrupt blobs are rejected. (A nil Resume means "no resume", so
	// the shortest corrupt input is the empty non-nil slice.)
	for _, bad := range [][]byte{{}, blob[:8], flipCkpt(blob)} {
		mach2 := wse.New(wse.CS1(m.NX, m.NY))
		w2, err := NewBiCGStabWSE(mach2, h)
		if err != nil {
			mach2.Close()
			t.Fatal(err)
		}
		if _, _, err := w2.Solve(b16, WSEOptions{MaxIter: 6, Resume: bad}); err == nil {
			t.Errorf("resume from corrupt checkpoint (%d bytes) succeeded", len(bad))
		}
		mach2.Close()
	}

	// A checkpoint from one program cannot restore into another: the
	// machine shape differs and Restore rejects it.
	other := wse.New(wse.CS1(4, 4))
	defer other.Close()
	m2 := stencil.Mesh{NX: 4, NY: 4, NZ: 4}
	op2 := stencil.MomentumLike(m2, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1.0, 0.05)
	norm2, _ := op2.Normalize()
	w3, err := NewBiCGStabWSE(other, stencil.NewOp7Half(norm2))
	if err != nil {
		t.Fatal(err)
	}
	b2 := make([]fp16.Float16, m2.N())
	for i := range b2 {
		b2[i] = fp16.FromFloat64(1)
	}
	if _, _, err := w3.Solve(b2, WSEOptions{MaxIter: 6, Resume: blob}); err == nil {
		t.Error("resume with a mismatched program succeeded")
	}
}

func flipCkpt(b []byte) []byte {
	c := append([]byte{}, b...)
	c[len(c)/2] ^= 0xff
	return c
}

// TestCheckpointGoldenFormat pins the checkpoint's on-disk encoding. A
// spooled checkpoint outlives the daemon that wrote it, so the committed
// v1 blob must decode, re-encode byte for byte and resume to the
// uninterrupted solve's bits under every later revision, and each kind
// of damage must be refused for its own reason. If the format must
// change, bump CheckpointVersion, keep a decoder for v1 and add a
// golden for the new version beside this one.
func TestCheckpointGoldenFormat(t *testing.T) {
	m := stencil.Mesh{NX: 2, NY: 2, NZ: 4}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1.0, 0.05)
	norm, diag := op.Normalize()
	b64 := make([]float64, m.N())
	for i := range b64 {
		b64[i] = 1 + float64(i%3)/4
	}
	b16 := fp16.FromFloat64Slice(stencil.ScaleRHS(b64, diag))
	h := stencil.NewOp7Half(norm)
	solve := func(opts WSEOptions) ([]fp16.Float16, WSEStats) {
		t.Helper()
		mach := wse.New(wse.CS1(m.NX, m.NY))
		defer mach.Close()
		w, err := NewBiCGStabWSE(mach, h)
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := w.Solve(b16, opts)
		if err != nil {
			t.Fatal(err)
		}
		return x, st
	}
	var blobs [][]byte
	xRef, stRef := solve(WSEOptions{MaxIter: 6, CheckpointEvery: 2, Checkpoint: func(b []byte) error {
		blobs = append(blobs, append([]byte{}, b...))
		return nil
	}})

	path := filepath.Join("testdata", "checkpoint_golden_v1.bin")
	if _, err := os.Stat(path); os.IsNotExist(err) {
		if err := os.WriteFile(path, blobs[0], 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("bootstrapped %s (%d bytes); commit it", path, len(blobs[0]))
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeWSECheckpoint(golden)
	if err != nil {
		t.Fatalf("committed golden no longer decodes: %v", err)
	}
	if re, err := cp.encode(); err != nil || !bytes.Equal(re, golden) {
		t.Fatalf("re-encoding the golden drifted from %s (err %v): bump CheckpointVersion instead of silently changing v%d",
			path, err, CheckpointVersion)
	}
	x, st := solve(WSEOptions{MaxIter: 6, Resume: golden})
	compareRuns(t, "resumed from the golden", x, st, xRef, stRef)

	// reseal re-frames a damaged body under a valid checksum, so that
	// only the check under test can refuse it.
	body := golden[:len(golden)-8]
	reseal := func(b []byte) []byte {
		h := fnv.New64a()
		h.Write(b)
		return binary.LittleEndian.AppendUint64(append([]byte{}, b...), h.Sum64())
	}
	patch := func(i int, v byte) []byte {
		c := append([]byte{}, golden...)
		c[i] = v
		return c
	}
	for _, c := range []struct {
		name, data, want string
	}{
		{"truncated", string(reseal(body[:20])), "truncated"},
		{"bad magic", string(patch(0, 'X')), "magic"},
		{"bad version", string(patch(7, CheckpointVersion+1)), "version"},
		{"bad checksum", string(patch(len(golden)-1, golden[len(golden)-1]^1)), "checksum"},
		{"trailing byte", string(reseal(append(append([]byte{}, body...), 0))), "trailing"},
	} {
		_, err := DecodeWSECheckpoint([]byte(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: DecodeWSECheckpoint error %v, want one naming %q", c.name, err, c.want)
		}
	}
}
