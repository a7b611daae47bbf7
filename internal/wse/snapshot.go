package wse

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

// Machine snapshots: a Snapshot captures the complete architectural
// state of a quiescent machine — everything Fingerprint hashes (fabric
// counters, queue contents, arbitration rotations, task scheduler
// flags and program counters, stream buffers, send gates, datapath
// counters) plus the tile arena contents, which Fingerprint leaves to
// the program but a resumed solve plainly needs. Restoring a Snapshot
// onto a freshly constructed machine running the same program makes it
// evolve bit-identically to the captured one — same Fingerprint every
// cycle — for either stepping engine and any worker count.
//
// What a Snapshot does NOT capture is the program itself: tasks,
// routes, subscriptions and instruction objects are host closures and
// must be rebuilt by re-running the same program construction before
// Restore. Restore validates the shape (task counts, arena sizes,
// stream-buffer capacities) and rejects mismatches. Snapshots serve
// checkpoint and resume: a warm machine is reused by reloading its
// program's coefficients (LoadCoeff), not by rewinding to a snapshot.

// SnapshotVersion is the current binary format version. Decoders accept
// only this version; the magic and version lead the encoding so future
// formats can evolve behind them.
const SnapshotVersion = 1

// snapshotMagic leads every encoded snapshot ("WSESNAP" + version byte).
var snapshotMagic = [8]byte{'W', 'S', 'E', 'S', 'N', 'A', 'P', SnapshotVersion}

// TaskSnap is one task's scheduler state.
type TaskSnap struct {
	Flags byte // bit 0 activated, bit 1 blocked, bit 2 running
	PC    int32
}

// CoreSnap is one core's architectural state. Streams holds each
// subscribed stream buffer's queued elements, in subscription order —
// the same order Fingerprint walks.
type CoreSnap struct {
	Arena   []uint16 // allocated arena contents, fp16 bits
	Tasks   []TaskSnap
	Sent    bool // sentThisCycle
	Busy    int64
	Lanes   int64
	Streams [][]uint16 // fp16 bits
}

// Snapshot is a restorable capture of a Machine. Fields are exported
// for white-box tests; use MarshalBinary/UnmarshalSnapshot for the
// stable on-disk form.
type Snapshot struct {
	FabricW, FabricH int
	Steps            int64
	Fab              *fabric.State
	Cores            []CoreSnap
}

// Snapshot captures the machine's state. The machine must be idle
// (AllIdle: no runnable core, fabric router queues empty): a core with
// an in-flight task or live threads holds instruction progress in host
// objects that cannot be serialized, and a checkpointing solver always
// reaches idle between phases anyway.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if !m.AllIdle() {
		return nil, fmt.Errorf("wse: cannot snapshot a busy machine (cores runnable or fabric words in flight)")
	}
	// Every core's slices are cut from machine slabs sized by a first pass.
	var words, tasks, streams, elems int
	for _, tl := range m.Tiles {
		c := tl.Core
		if c.current != nil || c.nthreads > 0 {
			return nil, fmt.Errorf("wse: tile %v has in-flight work; snapshot requires quiescence", tl.Coord)
		}
		words, tasks = words+tl.Arena.Used()/tensor.BytesPerWord, tasks+len(c.tasks)
		for si := range c.subs {
			for _, b := range c.subs[si].bufs {
				streams, elems = streams+1, elems+b.size
			}
		}
	}
	s := &Snapshot{
		FabricW: m.Cfg.FabricW, FabricH: m.Cfg.FabricH,
		Steps: m.steps,
		Fab:   m.Fab.CaptureState(),
		Cores: make([]CoreSnap, len(m.Tiles)),
	}
	arenas, taskSnaps := make([]uint16, words), make([]TaskSnap, tasks)
	bufSnaps, elemSnaps := make([][]uint16, streams), make([]uint16, elems)
	for i, tl := range m.Tiles {
		c := tl.Core
		cs := &s.Cores[i]
		cs.Arena = cut(&arenas, tl.Arena.Used()/tensor.BytesPerWord)
		for k, v := range tl.Arena.Slice(0, len(cs.Arena)) {
			cs.Arena[k] = v.Bits()
		}
		cs.Tasks = cut(&taskSnaps, len(c.tasks))
		for k, t := range c.tasks {
			var fl byte
			if t.activated {
				fl |= 1
			}
			if t.blocked {
				fl |= 2
			}
			if t.running {
				fl |= 4
			}
			cs.Tasks[k] = TaskSnap{Flags: fl, PC: int32(t.pc)}
		}
		cs.Sent = c.sentThisCycle
		cs.Busy, cs.Lanes = c.busyCycles, c.lanesUsed
		cs.Streams = bufSnaps[:0]
		for si := range c.subs {
			for _, b := range c.subs[si].bufs {
				el := cut(&elemSnaps, b.size)
				for k := range el {
					el[k] = b.buf[(b.head+k)%len(b.buf)].Bits()
				}
				cs.Streams = append(cs.Streams, el)
			}
		}
		cs.Streams = cut(&bufSnaps, len(cs.Streams))
	}
	return s, nil
}

// Restore loads s into the machine, which must have the same fabric
// dimensions and the same program (tasks, routes, subscriptions and
// arena layout built identically). The engine/worker count may differ
// from the captured machine's. After Restore the machine's Fingerprint
// equals the captured machine's, and it evolves bit-identically.
func (m *Machine) Restore(s *Snapshot) error {
	if s.FabricW != m.Cfg.FabricW || s.FabricH != m.Cfg.FabricH {
		return fmt.Errorf("wse: snapshot is %dx%d, machine is %dx%d",
			s.FabricW, s.FabricH, m.Cfg.FabricW, m.Cfg.FabricH)
	}
	if len(s.Cores) != len(m.Tiles) {
		return fmt.Errorf("wse: snapshot has %d cores, machine has %d", len(s.Cores), len(m.Tiles))
	}
	// Validate shape before mutating anything.
	for i, tl := range m.Tiles {
		c, cs := tl.Core, &s.Cores[i]
		if c.current != nil || c.nthreads > 0 {
			return fmt.Errorf("wse: tile %v has in-flight work; restore requires a quiescent machine", tl.Coord)
		}
		if words := tl.Arena.Used() / tensor.BytesPerWord; words != len(cs.Arena) {
			return fmt.Errorf("wse: tile %v arena has %d words, snapshot has %d (program mismatch)",
				tl.Coord, words, len(cs.Arena))
		}
		if len(c.tasks) != len(cs.Tasks) {
			return fmt.Errorf("wse: tile %v has %d tasks, snapshot has %d (program mismatch)",
				tl.Coord, len(c.tasks), len(cs.Tasks))
		}
		nb := 0
		for si := range c.subs {
			for _, b := range c.subs[si].bufs {
				if nb >= len(cs.Streams) {
					return fmt.Errorf("wse: tile %v has more stream buffers than the snapshot (program mismatch)", tl.Coord)
				}
				if len(cs.Streams[nb]) > len(b.buf) {
					return fmt.Errorf("wse: tile %v stream buffer %d: snapshot holds %d elements, capacity %d",
						tl.Coord, nb, len(cs.Streams[nb]), len(b.buf))
				}
				nb++
			}
		}
		if nb != len(cs.Streams) {
			return fmt.Errorf("wse: tile %v has %d stream buffers, snapshot has %d (program mismatch)",
				tl.Coord, nb, len(cs.Streams))
		}
	}
	if err := m.Fab.RestoreState(s.Fab); err != nil {
		return err
	}
	m.steps = s.Steps
	for i, tl := range m.Tiles {
		c, cs := tl.Core, &s.Cores[i]
		mem := tl.Arena.Slice(0, len(cs.Arena))
		for k, bits := range cs.Arena {
			mem[k] = fp16.FromBits(bits)
		}
		for k, t := range c.tasks {
			ts := cs.Tasks[k]
			t.activated = ts.Flags&1 != 0
			t.blocked = ts.Flags&2 != 0
			t.running = ts.Flags&4 != 0
			t.pc = int(ts.PC)
		}
		c.ready = len(c.tasks) > 0
		c.sentThisCycle = cs.Sent
		c.busyCycles, c.lanesUsed = cs.Busy, cs.Lanes
		// The restored fabric may hold rx words the captured machine had
		// not delivered yet: mark every subscribed color pending (the
		// mask is a host-side cache, not architectural state; the
		// runnable() pass below clears the bits of empty buffers).
		c.rxPending = 1<<len(c.subs) - 1
		c.streamed = true
		nb := 0
		for si := range c.subs {
			for _, b := range c.subs[si].bufs {
				el := cs.Streams[nb]
				nb++
				b.head, b.size = 0, len(el)
				for k, bits := range el {
					b.buf[k] = fp16.FromBits(bits)
				}
			}
		}
	}
	// Rebuild the runnable worklists from the restored scheduler state:
	// program construction may have pre-queued cores (Subscribe wakes),
	// and the captured machine — being AllIdle — had empty lists.
	for sh := range m.runnable {
		for _, c := range m.runnable[sh] {
			c.queued = false
		}
		m.runnable[sh] = m.runnable[sh][:0]
	}
	for _, tl := range m.Tiles {
		if tl.Core.runnable() {
			tl.Core.wake()
		}
	}
	return nil
}

// ------------------------------------------------------------ encoding

// MarshalBinary encodes the snapshot in the versioned codec frame
// (magic+version header, fabric section, core section, checksum).
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	e := codec.NewEncoder(snapshotMagic)
	e.U32(uint32(s.FabricW))
	e.U32(uint32(s.FabricH))
	e.I64(s.Steps)

	e.I64(s.Fab.Cycle)
	e.I64(s.Fab.Moves)
	e.U32(uint32(len(s.Fab.RR)))
	for _, v := range s.Fab.RR {
		e.I64(v)
	}
	e.U32(uint32(len(s.Fab.Queues)))
	for _, q := range s.Fab.Queues {
		e.U32(uint32(q.Tile))
		e.Byte(q.In)
		e.Byte(q.Color)
		e.U32(uint32(len(q.Words)))
		for _, w := range q.Words {
			e.U32(w)
		}
	}
	e.U32(uint32(len(s.Fab.Hot)))
	for _, t := range s.Fab.Hot {
		e.U32(uint32(t))
	}

	e.U32(uint32(len(s.Cores)))
	for i := range s.Cores {
		c := &s.Cores[i]
		e.U32(uint32(len(c.Arena)))
		for _, w := range c.Arena {
			e.U16(w)
		}
		e.U32(uint32(len(c.Tasks)))
		for _, t := range c.Tasks {
			e.Byte(t.Flags)
			e.U32(uint32(t.PC))
		}
		e.Bool(c.Sent)
		e.I64(c.Busy)
		e.I64(c.Lanes)
		e.U32(uint32(len(c.Streams)))
		for _, el := range c.Streams {
			e.U32(uint32(len(el)))
			for _, w := range el {
				e.U16(w)
			}
		}
	}
	return e.Seal(), nil
}

// UnmarshalSnapshot decodes data produced by MarshalBinary, verifying
// magic, version and checksum. It never panics on corrupt input (the
// FuzzSnapshotRoundTrip target pins this).
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	d, err := codec.Open(data, snapshotMagic, "wse: snapshot")
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Fab: &fabric.State{}}
	s.FabricW = int(d.U32())
	s.FabricH = int(d.U32())
	s.Steps = d.I64()
	s.Fab.W, s.Fab.H = s.FabricW, s.FabricH
	s.Fab.Cycle = d.I64()
	s.Fab.Moves = d.I64()
	s.Fab.RR = make([]int64, d.Count(8))
	for i := range s.Fab.RR {
		s.Fab.RR[i] = d.I64()
	}
	s.Fab.Queues = make([]fabric.QueueSnap, d.Count(10))
	for i := range s.Fab.Queues {
		q := &s.Fab.Queues[i]
		q.Tile = int32(d.U32())
		q.In = d.Byte()
		q.Color = d.Byte()
		q.Words = make([]uint32, d.Count(4))
		for k := range q.Words {
			q.Words[k] = d.U32()
		}
	}
	s.Fab.Hot = make([]int32, d.Count(4))
	for i := range s.Fab.Hot {
		s.Fab.Hot[i] = int32(d.U32())
	}
	s.Cores = make([]CoreSnap, d.Count(22))
	for i := range s.Cores {
		c := &s.Cores[i]
		c.Arena = make([]uint16, d.Count(2))
		for k := range c.Arena {
			c.Arena[k] = d.U16()
		}
		c.Tasks = make([]TaskSnap, d.Count(5))
		for k := range c.Tasks {
			c.Tasks[k] = TaskSnap{Flags: d.Byte(), PC: int32(d.U32())}
		}
		c.Sent = d.Bool()
		c.Busy = d.I64()
		c.Lanes = d.I64()
		c.Streams = make([][]uint16, d.Count(4))
		for k := range c.Streams {
			el := make([]uint16, d.Count(2))
			for j := range el {
				el[j] = d.U16()
			}
			c.Streams[k] = el
		}
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return s, nil
}
