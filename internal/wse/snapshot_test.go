package wse

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

// snapProg is the deterministic two-tile program behind the snapshot
// tests: tile 0 streams a vector east on color 7, tile 1 accumulates it
// with a StreamAdd and then runs a copy task, so a completed run leaves
// non-default state in every snapshotted dimension — arena contents on
// both tiles, a task with a retired program counter, datapath counters,
// and fabric arbitration history. The static half (routes, arenas,
// subscriptions, tasks) is program construction and must be rebuilt
// before Restore; the threads are runtime state and only exist while a
// phase is in flight.
type snapProg struct {
	src, dst  *Tile
	v, acc, w int
	buf       *StreamBuf
	fin       *Task
	idle      *Task
	n         int
}

func buildSnapProg(m *Machine) *snapProg {
	p := &snapProg{src: m.Tiles[0], dst: m.Tiles[1], n: 16}
	p.v = p.src.Arena.MustAlloc("v", p.n)
	p.acc = p.dst.Arena.MustAlloc("acc", p.n)
	p.w = p.dst.Arena.MustAlloc("w", p.n)
	m.Fab.SetRoute(p.src.Coord, 4, 7, 1<<1) // Ramp in, East out
	m.Fab.SetRoute(p.dst.Coord, 3, 7, 1<<4) // arrives West, to Ramp
	p.buf = &NewStreamBufs(1, 8)[0]
	p.dst.Core.Subscribe(7, p.buf)
	p.fin = p.dst.Core.AddTask(&Task{Name: "fin", Instrs: []Instr{
		&MemOp{Kind: OpCopy, Arena: p.dst.Arena, Dst: tensor.Vec1D(p.w, p.n), A: tensor.Vec1D(p.acc, p.n)},
	}})
	// A registered-but-never-activated task, so Restore must reproduce
	// quiet scheduler entries too, not just retired ones.
	p.idle = p.dst.Core.AddTask(&Task{Name: "idle", Instrs: []Instr{
		&MemOp{Kind: OpCopy, Arena: p.dst.Arena, Dst: tensor.Vec1D(p.w, p.n), A: tensor.Vec1D(p.w, p.n)},
	}})
	p.dst.Core.Block(p.idle)
	return p
}

// launch starts one stream round: src sends v, dst accumulates into acc
// and (on the first round) activates the fin task when the stream
// retires. Returns the round's done predicate.
func (p *snapProg) launch(slot int, activateFin bool) func() bool {
	send := &SendMem{Color: 7, Src: tensor.Vec1D(p.v, p.n), Arena: p.src.Arena, Total: p.n}
	p.src.Core.LaunchThread(slot, "tx", send, nil)
	add := &StreamAdd{Src: StreamSource{B: p.buf}, Acc: tensor.Vec1D(p.acc, p.n), Arena: p.dst.Arena, Total: p.n}
	var onDone func(*Core)
	if activateFin {
		fin := p.fin
		onDone = func(c *Core) { c.Activate(fin) }
	}
	p.dst.Core.LaunchThread(slot, "rx", add, onDone)
	return func() bool { return send.Done() && add.Done() }
}

// runToIdle drives the machine until done reports true and the machine
// is fully quiescent (threads retired, tasks drained, fabric empty).
func runToIdle(t *testing.T, m *Machine, done func() bool) {
	t.Helper()
	if _, err := m.RunUntil(done, 20000); err != nil {
		t.Fatal(err)
	}
	for i := 0; !m.AllIdle(); i++ {
		if i > 1000 {
			t.Fatal("machine did not reach AllIdle after the phase completed")
		}
		m.Step()
	}
}

// capturedMachine builds the program on a fresh machine, seeds the
// source vector and runs the first stream round to quiescence.
func capturedMachine(t *testing.T, workers int) (*Machine, *snapProg) {
	t.Helper()
	cfg := CS1(2, 1)
	cfg.Workers = workers
	m := New(cfg)
	p := buildSnapProg(m)
	for i := 0; i < p.n; i++ {
		p.src.Arena.Set(p.v+i, fp16.FromFloat64(float64(i)*0.5))
	}
	runToIdle(t, m, p.launch(0, true))
	return m, p
}

// TestSnapshotRoundTrip is the resume golden: capture a quiescent
// machine, push it through the binary format, restore onto a freshly
// constructed machine — possibly under a different stepping engine —
// and require bit-identical evolution: equal Fingerprint at restore and
// on every subsequent lockstep cycle of a second stream round.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, wk := range []struct{ a, b int }{{1, 1}, {1, 4}, {4, 1}} {
		t.Run(fmt.Sprintf("w%d_to_w%d", wk.a, wk.b), func(t *testing.T) {
			ma, pa := capturedMachine(t, wk.a)
			defer ma.Close()
			snap, err := ma.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := snap.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			blob2, err := snap.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatal("MarshalBinary is not deterministic")
			}
			dec, err := UnmarshalSnapshot(blob)
			if err != nil {
				t.Fatal(err)
			}
			reblob, err := dec.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, reblob) {
				t.Fatal("marshal/unmarshal/marshal is not byte-stable")
			}

			cfg := CS1(2, 1)
			cfg.Workers = wk.b
			mb := New(cfg)
			defer mb.Close()
			pb := buildSnapProg(mb) // same program, untouched arena
			if err := mb.Restore(dec); err != nil {
				t.Fatal(err)
			}
			if fa, fb := ma.Fingerprint(), mb.Fingerprint(); fa != fb {
				t.Fatalf("fingerprint after restore: %#x, captured machine has %#x", fb, fa)
			}
			for i := 0; i < pa.n; i++ {
				if ga, gb := pa.dst.Arena.At(pa.acc+i).Bits(), pb.dst.Arena.At(pb.acc+i).Bits(); ga != gb {
					t.Fatalf("restored acc[%d] = %#x, captured machine has %#x", i, gb, ga)
				}
			}

			// Second round on both machines, in lockstep: the restored
			// machine must shadow the original cycle for cycle.
			da, db := pa.launch(1, false), pb.launch(1, false)
			for cycle := 0; ; cycle++ {
				if cycle > 20000 {
					t.Fatal("second stream round did not finish")
				}
				if fa, fb := ma.Fingerprint(), mb.Fingerprint(); fa != fb {
					t.Fatalf("fingerprints diverge at lockstep cycle %d: %#x vs %#x", cycle, fa, fb)
				}
				if da() && db() && ma.AllIdle() && mb.AllIdle() {
					break
				}
				ma.Step()
				mb.Step()
			}
			// Two accumulation rounds over v[i] = i/2, plus the copy task.
			for i := 0; i < pa.n; i++ {
				want := fp16.FromFloat64(float64(i) * 0.5)
				want = fp16.Add(want, fp16.FromFloat64(float64(i)*0.5))
				if got := pb.dst.Arena.At(pb.acc + i); got.Bits() != want.Bits() {
					t.Fatalf("acc[%d] = %g after resume, want %g", i, got.Float64(), want.Float64())
				}
				if got := pb.dst.Arena.At(pb.w + i).Float64(); got != float64(i)*0.5 {
					t.Fatalf("w[%d] = %g, want %g (fin task output lost in restore)", i, got, float64(i)*0.5)
				}
			}
		})
	}
}

// TestSnapshotErrors pins the refusal paths: busy machines cannot be
// captured or restored, mismatched shapes are rejected before any
// mutation, and corrupt encodings never decode.
func TestSnapshotErrors(t *testing.T) {
	m, p := capturedMachine(t, 1)
	defer m.Close()
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Busy machine: a live thread blocks both capture and restore.
	busyCfg := CS1(2, 1)
	busy := New(busyCfg)
	defer busy.Close()
	bp := buildSnapProg(busy)
	bp.launch(0, false)
	if _, err := busy.Snapshot(); err == nil {
		t.Error("Snapshot on a busy machine succeeded")
	}
	if err := busy.Restore(snap); err == nil {
		t.Error("Restore onto a busy machine succeeded")
	}

	// Dimension mismatch.
	other := New(CS1(3, 1))
	defer other.Close()
	if err := other.Restore(snap); err == nil {
		t.Error("Restore onto a 3x1 machine from a 2x1 snapshot succeeded")
	}

	// Program mismatch: same fabric, but no program built.
	blank := New(CS1(2, 1))
	defer blank.Close()
	if err := blank.Restore(snap); err == nil {
		t.Error("Restore onto an unprogrammed machine succeeded")
	}
	// The failed restore must not have mutated anything.
	if fp := blank.Fingerprint(); fp != New(CS1(2, 1)).Fingerprint() {
		t.Error("failed Restore mutated the machine")
	}

	// Decoder refusals.
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", blob[:4]},
		{"bad magic", append([]byte("NOTASNAP"), blob[8:]...)},
		{"bad version", append(append([]byte{}, blob[:7]...), append([]byte{99}, blob[8:]...)...)},
		{"flipped byte", flipByte(blob, len(blob)/2)},
		{"truncated", blob[:len(blob)-5]},
		{"trailing", append(append([]byte{}, blob...), 0)},
	}
	for _, c := range cases {
		if _, err := UnmarshalSnapshot(c.data); err == nil {
			t.Errorf("%s: UnmarshalSnapshot succeeded on corrupt input", c.name)
		}
	}
	_ = p
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte{}, b...)
	c[i] ^= 0xff
	return c
}

// TestSnapshotGoldenFormat pins the on-disk encoding: the committed
// golden blob must decode under every future revision of the package,
// and re-encoding today's capture must reproduce it byte for byte. If
// the format ever needs to change, bump SnapshotVersion, regenerate
// the golden (delete it and re-run), and keep a decoder for v1.
func TestSnapshotGoldenFormat(t *testing.T) {
	m, _ := capturedMachine(t, 1)
	defer m.Close()
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "snapshot_golden_v1.bin")
	if _, err := os.Stat(path); os.IsNotExist(err) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("bootstrapped %s (%d bytes); commit it", path, len(blob))
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, blob) {
		t.Fatalf("snapshot encoding drifted from %s (%d bytes vs %d): bump SnapshotVersion instead of silently changing v%d",
			path, len(blob), len(golden), SnapshotVersion)
	}
	dec, err := UnmarshalSnapshot(golden)
	if err != nil {
		t.Fatalf("committed golden no longer decodes: %v", err)
	}
	fresh := New(CS1(2, 1))
	defer fresh.Close()
	buildSnapProg(fresh)
	if err := fresh.Restore(dec); err != nil {
		t.Fatalf("committed golden no longer restores: %v", err)
	}
	if fa, fb := m.Fingerprint(), fresh.Fingerprint(); fa != fb {
		t.Fatalf("golden restore fingerprint %#x, live machine %#x", fb, fa)
	}
}

// FuzzSnapshotRoundTrip: UnmarshalSnapshot must never panic on
// arbitrary input, and any input it accepts must re-encode stably
// (marshal ∘ unmarshal is idempotent from the first re-encoding on).
func FuzzSnapshotRoundTrip(f *testing.F) {
	m := New(CS1(2, 1))
	defer m.Close()
	p := buildSnapProg(m)
	for i := 0; i < p.n; i++ {
		p.src.Arena.Set(p.v+i, fp16.FromFloat64(float64(i)*0.5))
	}
	done := p.launch(0, true)
	if _, err := m.RunUntil(done, 20000); err != nil {
		f.Fatal(err)
	}
	for i := 0; !m.AllIdle() && i < 1000; i++ {
		m.Step()
	}
	snap, err := m.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add(blob[:len(blob)-3])
	f.Add(flipByte(blob, len(blob)/3))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSnapshot(data)
		if err != nil {
			return
		}
		b1, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		s2, err := UnmarshalSnapshot(b1)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		b2, err := s2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatal("marshal/unmarshal/marshal is not byte-stable")
		}

		// Sharded leg: any decodable snapshot that fits the 2×1
		// reference shape must behave identically under the sequential
		// engine and under fast-forward on one forced shard per tile —
		// Restore accepts or rejects it on both, and an accepted restore
		// leaves equal fingerprints that stay equal under lockstep
		// stepping.
		if s.FabricW == 2 && s.FabricH == 1 {
			mkRestored := func(e Engine, shards int) (*Machine, error) {
				cfg := CS1(2, 1)
				cfg.Engine, cfg.Workers = e, shards
				rm := New(cfg)
				fabric.ForceParallel(rm.Fab)
				buildSnapProg(rm)
				return rm, rm.Restore(s)
			}
			mseq, errSeq := mkRestored(EngineSequential, 0)
			defer mseq.Close()
			mshd, errShd := mkRestored(EngineFastForward, 2)
			defer mshd.Close()
			if (errSeq == nil) != (errShd == nil) {
				t.Fatalf("Restore verdict diverges across engines: seq %v, sharded %v", errSeq, errShd)
			}
			if errSeq != nil {
				return
			}
			for cyc := 0; cyc < 32; cyc++ {
				if fa, fb := mseq.Fingerprint(), mshd.Fingerprint(); fa != fb {
					t.Fatalf("restored fingerprints diverge at cycle %d: seq %#x, sharded %#x", cyc, fa, fb)
				}
				mseq.Step()
				mshd.Step()
			}
		}
	})
}
