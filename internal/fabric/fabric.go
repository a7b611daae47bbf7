// Package fabric is a cycle-level simulator of the CS-1's on-wafer
// interconnect: a 2D mesh of routers, one per tile, each with five
// bidirectional links — to its four neighbours and to its own core (the
// "ramp"). Communication follows the paper's model:
//
//   - routing is static, configured offline per (input port, color);
//   - a router can move one word per output link per cycle, on all five
//     links in parallel;
//   - the fanout of data to multiple destinations is done in the router
//     (an input word may forward to any subset of the five output ports);
//   - per-hop latency is one cycle; hardware queues provide backpressure;
//   - colors are virtual channels; the program (not the hardware) is
//     responsible for choosing deadlock-free color assignments.
//
// Words are 32-bit, carrying either one float32 or two fp16 elements, which
// matches the injection/extraction granularity the paper's AllReduce
// analysis uses ("a core … can receive only one [word] from the fabric").
//
// # Stepping engines and determinism
//
// A Fabric is advanced by a Stepper (see stepper.go): Sequential steps
// every router on one goroutine, Sharded(workers) partitions the tile
// grid into contiguous shards stepped concurrently with a two-phase
// claim/commit barrier per cycle, on a persistent worker pool (pool.go)
// that parks between cycles. The two engines are bit-identical — same
// queue contents, same occupancies, same Moves counter, cycle for cycle
// — because a cycle's routing decisions depend only on pre-cycle state
// and each queue is touched by exactly one shard during commit. Host
// code may therefore select an engine purely on fabric size without
// changing any simulated result. Queue storage lives in per-shard
// arenas (arena.go), and the claim phase takes a specialized fast path
// for single-output, non-multicast routes — the overwhelmingly common
// case in the paper's communication patterns.
package fabric

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/fp16"
)

// Port identifies one of a router's five links.
type Port uint8

// The five router ports. Ramp is the link to the tile's own core.
const (
	North Port = iota
	East
	South
	West
	Ramp
	NumPorts
)

// String returns a one-letter port name.
func (p Port) String() string { return [...]string{"N", "E", "S", "W", "R"}[p] }

// Opposite returns the port a word sent out of p arrives on at the
// neighbouring router.
func (p Port) Opposite() Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Ramp
}

// Delta returns the coordinate offset of the neighbour reached through p.
func (p Port) Delta() (dx, dy int) {
	switch p {
	case North:
		return 0, -1
	case South:
		return 0, 1
	case East:
		return 1, 0
	case West:
		return -1, 0
	}
	return 0, 0
}

// PortMask is a set of output ports, one bit per Port.
type PortMask uint8

// Mask builds a PortMask from ports.
func Mask(ports ...Port) PortMask {
	var m PortMask
	for _, p := range ports {
		m |= 1 << p
	}
	return m
}

// Has reports whether the mask contains p.
func (m PortMask) Has(p Port) bool { return m&(1<<p) != 0 }

// Color is a virtual channel identifier. The hardware provides 24.
type Color uint8

// MaxColors is the number of virtual channels per link.
const MaxColors = 24

// Coord addresses a tile on the fabric.
type Coord struct{ X, Y int }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Word is one 32-bit fabric word tagged with its virtual channel.
type Word struct {
	Color Color
	Bits  uint32
}

// F32 returns the payload as a float32.
func (w Word) F32() float32 { return math.Float32frombits(w.Bits) }

// WordF32 builds a word carrying one float32.
func WordF32(c Color, v float32) Word { return Word{Color: c, Bits: math.Float32bits(v)} }

// PackF16 builds a word carrying two fp16 elements (lo is element 0).
func PackF16(c Color, lo, hi fp16.Float16) Word {
	return Word{Color: c, Bits: uint32(lo.Bits()) | uint32(hi.Bits())<<16}
}

// UnpackF16 splits a word into its two fp16 elements.
func (w Word) UnpackF16() (lo, hi fp16.Float16) {
	return fp16.FromBits(uint16(w.Bits)), fp16.FromBits(uint16(w.Bits >> 16))
}

// queue is a bounded ring of words (a hardware input queue). Queues are
// allocated from per-shard arenas (arena.go) so the hot claim/commit
// loops of one shard walk contiguous memory. The ring arithmetic uses
// conditional wrap instead of modulo: push/pop are the two hottest
// operations of the whole simulator.
//
// A queue that backs a router's active route entry additionally
// maintains one bit of its router's occupancy mask (router.occ): occ is
// the back-pointer and occBit the entry's bit, assigned by SetRoute.
// push sets the bit on the empty→non-empty edge and pop clears it on
// the non-empty→empty edge, so the claim phase can skip a router's
// empty entries without touching them. Core receive queues (and queues
// of routers with more than 64 entries) keep occ == nil. The occupancy
// writes inherit the queues' shard-ownership discipline — a queue is
// popped only by the shard owning its router and pushed only by the
// shard owning its destination tile — so they are race-free under the
// sharded engine.
type queue struct {
	buf        []uint32
	head, size int32
	occ        *uint64
	occBit     uint64
}

func (q *queue) full() bool  { return q.size == int32(len(q.buf)) }
func (q *queue) empty() bool { return q.size == 0 }
func (q *queue) len() int    { return int(q.size) }

func (q *queue) push(w uint32) bool {
	if q.size == int32(len(q.buf)) {
		return false
	}
	i := q.head + q.size
	if n := int32(len(q.buf)); i >= n {
		i -= n
	}
	q.buf[i] = w
	if q.size == 0 && q.occ != nil {
		*q.occ |= q.occBit
	}
	q.size++
	return true
}

func (q *queue) peek() uint32 { return q.buf[q.head] }

// at returns the k-th queued word without popping (0 is the head).
func (q *queue) at(k int) uint32 { return q.buf[(int(q.head)+k)%len(q.buf)] }

func (q *queue) pop() uint32 {
	w := q.buf[q.head]
	q.head++
	if q.head == int32(len(q.buf)) {
		q.head = 0
	}
	q.size--
	if q.size == 0 && q.occ != nil {
		*q.occ &^= q.occBit
	}
	return w
}

// routeEntry is one configured (input port, color) of a router. Entries
// are kept in first-configured order: the arbitration rotation walks
// this list, so the order is part of the simulated state. Each entry
// caches its input queue pointer and its resolved destinations, so the
// claim phase touches no coordinate math and no (port,color) table
// lookups: a single-output entry holds its one destination inline, a
// multicast entry the index of its fan-out in its shard's slab
// (Fabric.fans), keeping this struct at 32 bytes. Resolution is
// lazy (first cycle the entry is claimed) because the destination
// queues may not exist yet while routes are still being configured;
// routes are static once stepping begins.
type routeEntry struct {
	q   *queue // input queue for (in, c) at this tile
	dst *queue // resolved destination queue (single-output only)
	// dstTile is the destination tile for hot re-marking when >= 0; a
	// negative value marks a core rx delivery at tile -(dstTile+1), which
	// fires the fabric's rx-delivery wake callbacks instead.
	dstTile  int32
	dstShard uint16 // engine shard owning dstTile
	outs     PortMask
	in       Port
	c        Color
	sport    Port // the single output port; valid when single
	single   bool // exactly one output port: the fast-path case
	// fan is 1 + the index of the entry's resolved fan-out in its shard's
	// slab, Fabric.fans[shard] (multicast only); 0 means not resolved yet.
	fan int32
}

func (en *routeEntry) setOuts(outs PortMask) {
	en.outs = outs
	en.single = bits.OnesCount8(uint8(outs)) == 1
	en.sport = Port(bits.TrailingZeros8(uint8(outs)))
	en.dst, en.fan = nil, 0 // force re-resolution
}

// fanDest is one resolved destination of a multicast entry: the queue,
// the tile to re-mark hot (or the rxTile encoding of a core delivery)
// and the engine shard that commits the push.
type fanDest struct {
	q     *queue
	tile  int32
	shard uint16
}

// fanout is a multicast entry's resolved destination list, in ascending
// port order — the order the claim phase stages its pushes in.
type fanout struct {
	n   int
	dst [NumPorts]fanDest
}

// router holds the claim-phase-hot state of one tile's router. The
// claim walk touches every hot router every cycle, so this struct is
// kept small (one cache line) and dense; the cold (port, color) lookup
// tables live in the parallel routerTables array (Fabric.tables),
// touched only on configuration, injection, extraction and snapshots.
type router struct {
	// active lists the configured (in, color) pairs with their cached
	// routing, to bound scanning in the claim phase.
	active []routeEntry
	// occ has bit i set while active[i].q is non-empty (maintained by
	// queue.push/pop through back-pointers), so the claim phase scans
	// only occupied entries. Valid only while !wide.
	occ uint64
	// rr is the output arbitration rotation counter. Only one rotation
	// slot exists in practice — every output of a router arbitrates off
	// the same walk — and the raw count is architectural state (hashed
	// by Fingerprint, captured by snapshots).
	rr int64
	// rrIdx caches rr % len(active) so the per-visit claim scan avoids
	// an integer divide; it is kept in step with rr by the claim phase
	// and recomputed whenever len(active) or rr changes elsewhere.
	rrIdx int32
	// wide marks a router with more than 64 active entries, for which
	// occ cannot cover every entry; claim falls back to the full scan.
	wide bool
}

// routerTables holds one tile's static routing tables and input queue
// pointers — the configuration-time and edge-of-fabric state split out
// of the hot router struct.
type routerTables struct {
	// routes[in][color] is the output port set; zero means "no route",
	// which the simulator reports as a configuration error on arrival.
	routes [NumPorts][MaxColors]PortMask
	// queues[in][color] holds words that arrived on (in, color).
	queues [NumPorts][MaxColors]*queue
}

// Config sizes a fabric.
type Config struct {
	W, H int
	// QueueDepth is the per-(port,color) router queue capacity. The
	// hardware queues are shallow; 4 reproduces wormhole-like backpressure.
	QueueDepth int
	// RxDepth is the per-color core receive buffer capacity.
	RxDepth int
	// Stepper selects the stepping engine; nil means Sequential(). The
	// instance is bound to this fabric and must not be reused.
	Stepper Stepper
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4
	}
	if c.RxDepth <= 0 {
		c.RxDepth = 4
	}
	return c
}

// Fabric is the whole mesh.
type Fabric struct {
	cfg     Config
	W, H    int
	routers []router
	tables  []routerTables
	// core receive buffers, per tile per color
	rx [][MaxColors]*queue

	cycle int64
	moves int64
	// activity tracking: tiles whose router might have movable words,
	// listed per shard so each engine shard owns its list exclusively.
	hot      []bool
	hotLists [][]int
	shardOf  []uint16
	// rxWake holds the registered rx-delivery callbacks; see OnRxDelivery.
	rxWake []func(tile int, c Color)
	// arenas[s] backs the queue storage of every tile in shard s; only
	// shard s allocates from it during stepping.
	arenas []shardArena
	// fans[s] holds the resolved fan-outs of shard s's multicast entries
	// (routeEntry.fan indexes it), appended by shard s's claim phase in
	// first-claim order so a cycle's multicast claims walk one slab.
	fans [][]fanout

	stepper Stepper
}

// stagedPush is one claimed transfer awaiting commit. The destination
// queue is resolved at claim time, so commit is a straight pointer walk.
type stagedPush struct {
	q *queue
	// tile >= 0 is a router destination to re-mark hot; tile < 0 is a
	// core rx delivery at tile -(tile+1), which fires the rx-delivery
	// wake callbacks (the event edge event-driven per-tile actors — the
	// wse core worklist, the AllReduce state machines — are parked on).
	tile int32
	bits uint32
}

// New builds a fabric of w×h routers.
func New(cfg Config) *Fabric {
	cfg = cfg.withDefaults()
	f := &Fabric{
		cfg: cfg, W: cfg.W, H: cfg.H,
		routers: make([]router, cfg.W*cfg.H),
		tables:  make([]routerTables, cfg.W*cfg.H),
		rx:      make([][MaxColors]*queue, cfg.W*cfg.H),
		hot:     make([]bool, cfg.W*cfg.H),
	}
	if cfg.Stepper == nil {
		cfg.Stepper = Sequential()
	}
	f.stepper = cfg.Stepper
	f.stepper.bind(f)
	return f
}

// StepperName reports the name of the bound stepping engine.
func (f *Fabric) StepperName() string { return f.stepper.Name() }

// Close releases the stepping engine's persistent worker pool, if one
// was started. It is idempotent and safe on any engine (Sequential's is
// a no-op); it must not be called concurrently with Step. The fabric
// remains fully usable afterwards — cycles simply step inline. A fabric
// that is never Closed does not leak: a runtime cleanup stops the pool
// when the fabric becomes unreachable (the parked workers hold no
// reference to the fabric, so they do not pin it).
func (f *Fabric) Close() { f.stepper.Close() }

// RunSharded runs fn over every engine shard's [lo, hi) tile range, on
// the engine's worker pool when it is profitable (sharded engine on a
// multi-core host) and inline otherwise. Callers that step per-tile
// actors each cycle (wse.Machine) use this so core stepping rides the
// same persistent pool — and the same tile partition — as the fabric,
// keeping all tile-local fabric access shard-owned.
func (f *Fabric) RunSharded(fn func(lo, hi int)) { f.stepper.runShards(fn) }

// ShardRanges returns the engine's tile partition as [lo, hi) index
// ranges. Callers that step per-tile actors concurrently (wse.Machine)
// use the same partition so all tile-local fabric access stays
// shard-owned.
func (f *Fabric) ShardRanges() [][2]int { return f.stepper.shards() }

// rxTile encodes a core rx delivery destination for stagedPush.tile and
// routeEntry.dstTile: negative, carrying both the tile index and the
// delivered color (so the rx-delivery wake can report which virtual
// channel the word landed on), recoverable with rxTileIndex/rxColor.
func rxTile(ti int, c Color) int32 { return -int32(ti*MaxColors+int(c)) - 1 }

// rxTileIndex recovers the tile index from an rxTile encoding.
func rxTileIndex(enc int32) int { return int(-enc-1) / MaxColors }

// rxColor recovers the delivered color from an rxTile encoding.
func rxColor(enc int32) Color { return Color(int(-enc-1) % MaxColors) }

// OnRxDelivery registers fn to be called every time a word is committed
// into a core receive buffer, with the destination tile index and the
// color it arrived on. This is the event edge that lets per-tile actors
// (the wse core scheduler, the kernels' host-side state machines) park
// while idle instead of polling their receive buffers every cycle; the
// color lets an actor ignore deliveries on channels it does not
// consume, so independent subsystems sharing the fabric do not pollute
// each other's worklists.
//
// Concurrency contract: with a sharded engine the callback runs on the
// worker goroutine of the shard that owns the tile, during the commit
// phase. It must therefore touch only state owned by that tile's shard
// (e.g. append to a per-shard worklist selected via ShardOf) and must
// not call back into the fabric. Callbacks cannot be unregistered; a
// long-lived fabric should multiplex one callback rather than stacking
// registrations.
func (f *Fabric) OnRxDelivery(fn func(tile int, c Color)) { f.rxWake = append(f.rxWake, fn) }

// ShardOf returns the index of the engine shard that owns the tile.
// Per-tile actors stepped concurrently (wse.Machine's core worklists)
// key their per-shard state by this, so rx-delivery callbacks stay
// shard-local.
func (f *Fabric) ShardOf(tile int) int { return int(f.shardOf[tile]) }

// Index returns the tile index of c.
func (f *Fabric) Index(c Coord) int { return c.Y*f.W + c.X }

// CoordOf inverts Index.
func (f *Fabric) CoordOf(i int) Coord { return Coord{X: i % f.W, Y: i / f.W} }

// In reports whether c is on the fabric.
func (f *Fabric) In(c Coord) bool { return c.X >= 0 && c.X < f.W && c.Y >= 0 && c.Y < f.H }

// Cycle returns the number of Steps taken.
func (f *Fabric) Cycle() int64 { return f.cycle }

// Moves returns the total words moved across all links.
func (f *Fabric) Moves() int64 { return f.moves }

// SetRoute configures tile at's route for words arriving on (in, color):
// they fan out to every port in outs. Configuring Ramp in outs delivers to
// the tile's core. Routes are fixed before simulation, as in the hardware
// ("routing is configured offline, as part of compilation").
func (f *Fabric) SetRoute(at Coord, in Port, c Color, outs PortMask) {
	ti := f.Index(at)
	r := &f.routers[ti]
	tb := &f.tables[ti]
	tb.routes[in][c] = outs
	if tb.queues[in][c] == nil {
		tb.queues[in][c] = f.arenas[f.shardOf[ti]].newQueue(f.cfg.QueueDepth)
	}
	for i := range r.active {
		if r.active[i].in == in && r.active[i].c == c {
			if r.active[i].fan != 0 {
				f.dropFanouts()
			}
			r.active[i].setOuts(outs)
			return
		}
	}
	if outs == 0 {
		return
	}
	en := routeEntry{q: tb.queues[in][c], in: in, c: c}
	en.setOuts(outs)
	r.active = append(r.active, en)
	if i := len(r.active) - 1; i < 64 && !r.wide {
		en.q.occ, en.q.occBit = &r.occ, 1<<uint(i)
		if !en.q.empty() {
			r.occ |= en.q.occBit
		}
	} else {
		// Too many entries for one occupancy word: disable the mask for
		// this router and let claim fall back to scanning every entry.
		r.wide = true
		for j := range r.active {
			r.active[j].q.occ = nil
		}
		r.occ = 0
	}
	r.rrIdx = int32(r.rr % int64(len(r.active)))
}

// dest resolves where a word of color c leaving tile ti through port p
// lands: the core rx queue for the ramp, or the neighbouring router's
// input queue for a link hop, with the tile to re-mark (or the rxTile
// encoding of a core delivery) and the shard that commits the push. A
// route that leads nowhere panics here, the first time a word takes it.
func (f *Fabric) dest(ti int, p Port, c Color) fanDest {
	if p == Ramp {
		return fanDest{f.rxQueue(ti, c), rxTile(ti, c), f.shardOf[ti]}
	}
	at := f.CoordOf(ti)
	dx, dy := p.Delta()
	nb := Coord{at.X + dx, at.Y + dy}
	if !f.In(nb) {
		// Configured route off the fabric edge: drop target. The paper's
		// patterns never do this; flag loudly.
		panic(fmt.Sprintf("fabric: route off edge at %v port %v", at, p))
	}
	nbi := f.Index(nb)
	nq := f.tables[nbi].queues[p.Opposite()][c]
	if nq == nil {
		panic(fmt.Sprintf("fabric: no route configured at %v for arrivals on (%v,%d)", nb, p.Opposite(), c))
	}
	return fanDest{nq, int32(nbi), f.shardOf[nbi]}
}

// resolveSingle fills en's cached destination for the single-output
// fast path. Called once per entry, from the claim phase of the shard
// that owns the tile.
func (f *Fabric) resolveSingle(ti int, en *routeEntry) *queue {
	d := f.dest(ti, en.sport, en.c)
	en.dst, en.dstTile, en.dstShard = d.q, d.tile, d.shard
	return d.q
}

// resolveFanout builds en's fan-out — every configured output port's
// destination, in ascending port order — and caches it in the shard's
// slab. Called once per multicast entry, from the claim phase of the
// shard that owns the tile.
func (f *Fabric) resolveFanout(ti int, en *routeEntry) *fanout {
	if en.outs == 0 {
		panic(fmt.Sprintf("fabric: word on unrouted (%v,%d) at %v", en.in, en.c, f.CoordOf(ti)))
	}
	var fo fanout
	for p := Port(0); p < NumPorts; p++ {
		if en.outs.Has(p) {
			fo.dst[fo.n] = f.dest(ti, p, en.c)
			fo.n++
		}
	}
	sh := f.shardOf[ti]
	f.fans[sh] = append(f.fans[sh], fo)
	en.fan = int32(len(f.fans[sh]))
	return &f.fans[sh][en.fan-1]
}

// dropFanouts forgets every resolved fan-out, so that rerouting an entry
// that was already claimed (routes are meant to be static once stepping
// begins; nothing in the repository does this) cannot leave a stale slot
// behind. Each entry re-resolves on its next claim.
func (f *Fabric) dropFanouts() {
	for i := range f.routers {
		for j := range f.routers[i].active {
			f.routers[i].active[j].fan = 0
		}
	}
	for s := range f.fans {
		f.fans[s] = f.fans[s][:0]
	}
}

// Route returns the configured output mask for (in, color) at tile at.
func (f *Fabric) Route(at Coord, in Port, c Color) PortMask {
	return f.tables[f.Index(at)].routes[in][c]
}

// Send injects one word from the core of tile at into its router's ramp
// input. It returns false (and injects nothing) if the ramp queue is full;
// the caller models a stalled send thread. At most one word per cycle can
// traverse the ramp link in each direction, which callers respect by
// calling Send at most once per cycle per tile.
func (f *Fabric) Send(at Coord, w Word) bool {
	i := f.Index(at)
	tb := &f.tables[i]
	if tb.routes[Ramp][w.Color] == 0 {
		panic(fmt.Sprintf("fabric: tile %v has no route for injected color %d", at, w.Color))
	}
	q := tb.queues[Ramp][w.Color]
	if q == nil || !q.push(w.Bits) {
		return false
	}
	f.markHot(i)
	return true
}

// Recv pops one word of the given color from tile at's core receive
// buffer. ok is false when none is available.
func (f *Fabric) Recv(at Coord, c Color) (Word, bool) {
	i := f.Index(at)
	q := f.rx[i][c]
	if q == nil || q.empty() {
		return Word{}, false
	}
	return Word{Color: c, Bits: q.pop()}, true
}

// RxLen returns the occupancy of tile at's receive buffer for color c.
func (f *Fabric) RxLen(at Coord, c Color) int {
	q := f.rx[f.Index(at)][c]
	if q == nil {
		return 0
	}
	return q.len()
}

// RxQueue is a core's handle on one of its tile's receive buffers: the
// per-tile actor that owns a subscribed color resolves the handle once
// (RxQueueOf) and then pops arriving words without the coordinate and
// table lookups Recv pays per call. Like Recv, it may only be used by
// the shard that owns the tile while the fabric is mid-Step.
type RxQueue queue

// Len returns the number of words waiting.
func (q *RxQueue) Len() int { return int(q.size) }

// Pop removes and returns the oldest word's payload; the queue must not
// be empty.
func (q *RxQueue) Pop() uint32 { return (*queue)(q).pop() }

// RxQueueOf returns the handle on tile's receive buffer for color c, or
// nil while no word has ever been delivered there (the buffer is created
// by the first delivery). Once non-nil the handle stays valid for the
// fabric's lifetime, across RestoreState.
func (f *Fabric) RxQueueOf(tile int, c Color) *RxQueue { return (*RxQueue)(f.rx[tile][c]) }

func (f *Fabric) rxQueue(tile int, c Color) *queue {
	if f.rx[tile][c] == nil {
		// Lazily created during stepping, always by the shard that owns
		// the tile, so the per-shard arena needs no locking.
		f.rx[tile][c] = f.arenas[f.shardOf[tile]].newQueue(f.cfg.RxDepth)
	}
	return f.rx[tile][c]
}

func (f *Fabric) markHot(tile int) {
	if !f.hot[tile] {
		f.hot[tile] = true
		s := f.shardOf[tile]
		f.hotLists[s] = append(f.hotLists[s], tile)
	}
}

// Step advances the fabric by one cycle: every router moves the head word
// of its input queues toward its configured outputs, subject to one word
// per output link per cycle and space in the destination queue. Transfers
// are claimed against the pre-cycle state and committed together, so a
// word moves at most one hop per cycle. The work runs on the configured
// Stepper; see the package comment for the determinism contract.
func (f *Fabric) Step() {
	f.cycle++
	f.stepper.step(f)
}

// RouterQueueLen returns the occupancy of the (in, color) input queue of
// tile at's router, for tests asserting engine equivalence.
func (f *Fabric) RouterQueueLen(at Coord, in Port, c Color) int {
	q := f.tables[f.Index(at)].queues[in][c]
	if q == nil {
		return 0
	}
	return q.len()
}

// Fingerprint hashes the complete architectural state — cycle and move
// counters, every router input queue's contents and arbitration
// rotation, and every core receive buffer — with FNV-1a. Two fabrics
// that evolved identically have equal fingerprints each cycle; the
// equivalence tests compare engines through this.
func (f *Fabric) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mixQueue := func(tag uint64, q *queue) {
		if q == nil || q.empty() {
			return
		}
		mix(tag)
		mix(uint64(q.len()))
		for k := 0; k < q.len(); k++ {
			mix(uint64(q.at(k)))
		}
	}
	mix(uint64(f.cycle))
	mix(uint64(f.moves))
	for i := range f.routers {
		mix(uint64(f.routers[i].rr))
		tb := &f.tables[i]
		for in := Port(0); in < NumPorts; in++ {
			for c := 0; c < MaxColors; c++ {
				mixQueue(uint64(i)<<16|uint64(in)<<8|uint64(c), tb.queues[in][c])
			}
		}
		for c := 0; c < MaxColors; c++ {
			mixQueue(uint64(i)<<16|uint64(NumPorts)<<8|uint64(c), f.rx[i][c])
		}
	}
	return h
}

// Quiescent reports whether no words remain anywhere in the fabric
// (router queues only; core receive buffers may still hold words). A
// router's occupancy mask already answers this for its entries — the
// claim phase trusts it the same way — so only wide routers, which
// have no mask, are walked entry by entry.
func (f *Fabric) Quiescent() bool {
	for i := range f.routers {
		r := &f.routers[i]
		if !r.wide {
			if r.occ != 0 {
				return false
			}
			continue
		}
		for j := range r.active {
			if !r.active[j].q.empty() {
				return false
			}
		}
	}
	return true
}

// Drain steps until quiescent or maxCycles is exceeded, returning the
// number of cycles stepped and whether the fabric drained. It detects
// deadlock/livelock as "no words moved for width+height cycles".
func (f *Fabric) Drain(maxCycles int) (int, bool) {
	stall := 0
	stallLimit := f.W + f.H + 8
	for n := 0; n < maxCycles; n++ {
		if f.Quiescent() {
			return n, true
		}
		before := f.moves
		f.Step()
		if f.moves == before {
			stall++
			if stall > stallLimit {
				return n + 1, false
			}
		} else {
			stall = 0
		}
	}
	return maxCycles, f.Quiescent()
}
