package wse

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

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
// stream-buffer capacities) and rejects mismatches.

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

// MarshalBinary encodes the snapshot in the versioned little-endian
// binary format: magic+version header, fabric section, core section,
// and a trailing FNV-1a checksum of everything before it.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	e := &enc{}
	e.bytes(snapshotMagic[:])
	e.u32(uint32(s.FabricW))
	e.u32(uint32(s.FabricH))
	e.i64(s.Steps)

	e.i64(s.Fab.Cycle)
	e.i64(s.Fab.Moves)
	e.u32(uint32(len(s.Fab.RR)))
	for _, v := range s.Fab.RR {
		e.i64(v)
	}
	e.u32(uint32(len(s.Fab.Queues)))
	for _, q := range s.Fab.Queues {
		e.u32(uint32(q.Tile))
		e.byte(q.In)
		e.byte(q.Color)
		e.u32(uint32(len(q.Words)))
		for _, w := range q.Words {
			e.u32(w)
		}
	}
	e.u32(uint32(len(s.Fab.Hot)))
	for _, t := range s.Fab.Hot {
		e.u32(uint32(t))
	}

	e.u32(uint32(len(s.Cores)))
	for i := range s.Cores {
		c := &s.Cores[i]
		e.u32(uint32(len(c.Arena)))
		for _, w := range c.Arena {
			e.u16(w)
		}
		e.u32(uint32(len(c.Tasks)))
		for _, t := range c.Tasks {
			e.byte(t.Flags)
			e.u32(uint32(t.PC))
		}
		e.bool(c.Sent)
		e.i64(c.Busy)
		e.i64(c.Lanes)
		e.u32(uint32(len(c.Streams)))
		for _, el := range c.Streams {
			e.u32(uint32(len(el)))
			for _, w := range el {
				e.u16(w)
			}
		}
	}
	h := fnv.New64a()
	h.Write(e.b)
	e.u64(h.Sum64())
	return e.b, nil
}

// UnmarshalSnapshot decodes data produced by MarshalBinary, verifying
// magic, version and checksum. It never panics on corrupt input (the
// FuzzSnapshotRoundTrip target pins this).
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapshotMagic)+8 {
		return nil, fmt.Errorf("wse: snapshot truncated (%d bytes)", len(data))
	}
	for i := 0; i < 7; i++ {
		if data[i] != snapshotMagic[i] {
			return nil, fmt.Errorf("wse: not a machine snapshot (bad magic)")
		}
	}
	if v := data[7]; v != SnapshotVersion {
		return nil, fmt.Errorf("wse: unsupported snapshot version %d (have %d)", v, SnapshotVersion)
	}
	body, sumBytes := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(sumBytes) {
		return nil, fmt.Errorf("wse: snapshot checksum mismatch")
	}
	d := &dec{b: body[len(snapshotMagic):]}
	s := &Snapshot{Fab: &fabric.State{}}
	s.FabricW = int(d.u32())
	s.FabricH = int(d.u32())
	s.Steps = d.i64()
	s.Fab.W, s.Fab.H = s.FabricW, s.FabricH
	s.Fab.Cycle = d.i64()
	s.Fab.Moves = d.i64()
	s.Fab.RR = make([]int64, d.count(8))
	for i := range s.Fab.RR {
		s.Fab.RR[i] = d.i64()
	}
	s.Fab.Queues = make([]fabric.QueueSnap, d.count(10))
	for i := range s.Fab.Queues {
		q := &s.Fab.Queues[i]
		q.Tile = int32(d.u32())
		q.In = d.byte()
		q.Color = d.byte()
		q.Words = make([]uint32, d.count(4))
		for k := range q.Words {
			q.Words[k] = d.u32()
		}
	}
	s.Fab.Hot = make([]int32, d.count(4))
	for i := range s.Fab.Hot {
		s.Fab.Hot[i] = int32(d.u32())
	}
	s.Cores = make([]CoreSnap, d.count(22))
	for i := range s.Cores {
		c := &s.Cores[i]
		c.Arena = make([]uint16, d.count(2))
		for k := range c.Arena {
			c.Arena[k] = d.u16()
		}
		c.Tasks = make([]TaskSnap, d.count(5))
		for k := range c.Tasks {
			c.Tasks[k] = TaskSnap{Flags: d.byte(), PC: int32(d.u32())}
		}
		c.Sent = d.bool()
		c.Busy = d.i64()
		c.Lanes = d.i64()
		c.Streams = make([][]uint16, d.count(4))
		for k := range c.Streams {
			el := make([]uint16, d.count(2))
			for j := range el {
				el[j] = d.u16()
			}
			c.Streams[k] = el
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != d.off {
		return nil, fmt.Errorf("wse: snapshot has %d trailing bytes", len(d.b)-d.off)
	}
	return s, nil
}

// enc is a little-endian append-only encoder.
type enc struct{ b []byte }

func (e *enc) bytes(p []byte) { e.b = append(e.b, p...) }
func (e *enc) byte(v byte)    { e.b = append(e.b, v) }
func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }

// dec is the matching bounds-checked decoder; the first short read
// latches err and zeroes every subsequent read.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("wse: snapshot truncated at byte %d", d.off)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) byte() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}
func (d *dec) bool() bool { return d.byte() != 0 }
func (d *dec) u16() uint16 {
	p := d.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}
func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}
func (d *dec) i64() int64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p))
}

// count reads a u32 element count and bounds it by the bytes remaining
// (each element needs at least minBytes), so corrupt input cannot force
// huge allocations.
func (d *dec) count(minBytes int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n*minBytes > len(d.b)-d.off {
		d.err = fmt.Errorf("wse: snapshot count %d at byte %d exceeds remaining input", n, d.off)
		return 0
	}
	return n
}
