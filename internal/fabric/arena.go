package fabric

// This file holds the fabric's per-tile state in three fabric-wide
// slabs, addressed by index rather than through per-tile pointer tables:
//
//   - Fabric.qs, every queue header — router input queues and core
//     receive buffers alike — 16 bytes each;
//   - Fabric.words, every queue's ring, the ring of queue i starting at
//     qs[i].off;
//   - Fabric.ents, every router's route entries, router r's at
//     ents[r.lo : r.lo+r.n] in arbitration order.
//
// Queues are only ever appended, so a queue index — what route entries,
// fan-outs, staged pushes and the RxQueue/TxQueue handles hold — stays
// valid for the fabric's lifetime, across RestoreState. All of them are
// created by configuration calls (SetRoute, and RestoreState for a
// receive buffer no route delivers to), never while a Step runs, so the
// slabs need no per-shard ownership and no locking.
//
// The first SetRoute sizes all three for entryRoom entries and queues
// per tile (reserve), so configuring a fabric moves no slab. Entries
// are kept contiguous per router, because the claim phase maps an
// occupancy bit to an entry by position: a router's first entry claims
// a region of entryRoom slots, and a list that outgrows its region
// moves to a fresh one at the slab's end, twice as large. Nothing
// outside a router refers to its entries by slab position, so moving a
// list changes nothing but the router's lo. There is no (port, color)
// table: a lookup scans the router's entries (Fabric.entry), which only
// configuration, snapshots and an entry's first claim do. A tile's
// receive buffers are found through Fabric.rx.

// queue is a bounded ring of words (a hardware input queue or a core
// receive buffer). The ring arithmetic uses conditional wrap instead of
// modulo: push and pop are the two hottest operations of the simulator.
//
// A router input queue of a router with at most 64 entries also drives
// one bit of that router's occupancy mask (router.occ): bit is its
// entry's position, set by push on the empty→non-empty edge and cleared
// by pop on the non-empty→empty edge, so the claim phase can skip a
// router's empty entries without touching them. Receive buffers and the
// queues of wide routers have bit == noOcc. The occupancy writes inherit
// the queues' shard-ownership discipline — a queue is popped only by the
// shard owning its router and pushed only by the shard owning its
// destination tile — so they are race-free under the sharded engine.
type queue struct {
	off        int32  // ring start in Fabric.words
	tile       int32  // the tile whose router (or core) owns the queue
	head, size uint16 // ring state
	cap        uint16 // ring length: Config.QueueDepth or RxDepth
	bit        uint8  // the queue's bit in routers[tile].occ, or noOcc
	// live marks a receive buffer a route has resolved to (or a restore
	// has filled); RxQueueOf hands out no handle before then.
	live bool
}

// noOcc is queue.bit for a queue no occupancy mask tracks.
const noOcc = 0xff

// maxDepth bounds Config.QueueDepth and RxDepth: queue.cap is 16 bits.
const maxDepth = 1<<16 - 1

// newQueue appends a queue of the given depth, owned by tile, and
// returns its index.
func (f *Fabric) newQueue(tile, depth int) int32 {
	f.qs = append(f.qs, queue{off: int32(len(f.words)), tile: int32(tile), cap: uint16(depth), bit: noOcc})
	f.words = append(f.words, make([]uint32, depth)...)
	return int32(len(f.qs) - 1)
}

func (f *Fabric) push(qi int32, w uint32) bool {
	q := &f.qs[qi]
	if q.size == q.cap {
		return false
	}
	i := int32(q.head) + int32(q.size)
	if n := int32(q.cap); i >= n {
		i -= n
	}
	f.words[q.off+i] = w
	if q.size == 0 && q.bit != noOcc {
		f.routers[q.tile].occ |= 1 << q.bit
	}
	q.size++
	return true
}

// peek returns the head word of a non-empty queue.
func (f *Fabric) peek(qi int32) uint32 {
	q := &f.qs[qi]
	return f.words[q.off+int32(q.head)]
}

// at returns the k-th queued word without popping (0 is the head).
func (f *Fabric) at(qi int32, k int) uint32 {
	q := &f.qs[qi]
	return f.words[int(q.off)+(int(q.head)+k)%int(q.cap)]
}

func (f *Fabric) pop(qi int32) uint32 {
	q := &f.qs[qi]
	w := f.words[q.off+int32(q.head)]
	q.head++
	if q.head == q.cap {
		q.head = 0
	}
	q.size--
	if q.size == 0 && q.bit != noOcc {
		f.routers[q.tile].occ &^= 1 << q.bit
	}
	return w
}

// entryRoom is the room a router's first entry list is given, and the
// entries and queues per tile the slabs are first sized for: a star
// exchange plus the AllReduce takes 11 entries and 16 queues at most
// tiles (13 and 21 at the most), Listing 1 plus the AllReduce 8 and 14.
// A router keeps its room for the fabric's lifetime.
const entryRoom = 16

// reserve sizes the empty slabs for entryRoom entries and queues per
// tile.
func (f *Fabric) reserve() {
	n := entryRoom * len(f.routers)
	f.ents = make([]routeEntry, 0, n)
	f.qs = make([]queue, 0, n)
	f.words = make([]uint32, 0, n*max(f.cfg.QueueDepth, f.cfg.RxDepth))
}

// entries returns tile ti's route entries, in arbitration order. The
// slice aliases the slab: it is valid until the next SetRoute.
func (f *Fabric) entries(ti int) []routeEntry {
	r := &f.routers[ti]
	return f.ents[r.lo : r.lo+int32(r.n)]
}

// addEntry appends en to r's entry list, moving the list to the end of
// the slab with twice the room when its own is used up, and returns its
// position in the list.
func (f *Fabric) addEntry(r *router, en routeEntry) int {
	if r.n == r.room {
		room := max(2*int(r.room), entryRoom)
		lo := len(f.ents)
		f.ents = append(f.ents, make([]routeEntry, room)...)
		copy(f.ents[lo:], f.ents[r.lo:r.lo+int32(r.n)])
		r.lo, r.room = int32(lo), uint8(room) // 16, 32, 64, 128 ≥ NumPorts·MaxColors
	}
	i := int(r.n)
	f.ents[r.lo+int32(i)] = en
	r.n++
	return i
}
