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
// every router on one goroutine, Sharded(workers) splits the tile grid
// into contiguous shards and runs each cycle as two jobs, claim then
// commit, whose shards the caller shares with helper goroutines
// (handoff.go). The two are bit-identical — queue contents, occupancies
// and Moves, cycle for cycle — because the claim phase reads only
// pre-cycle state, each queue takes at most one push and one pop per
// cycle, and the shard owning a queue's tile commits it, pops before
// pushes, in the sequential order (TestClaimLockstep, FuzzClaim).
// The claim phase takes a specialized fast path for single-output,
// non-multicast routes — the overwhelmingly common case in the paper's
// communication patterns.
//
// # Storage
//
// A fabric keeps no per-tile pointer tables and no per-tile heap
// objects: route entries, queue headers and queue rings live in three
// fabric-wide slabs addressed by index (arena.go). The claim and commit
// phases walk indices resolved once; per-tile actors send and receive
// through TxQueue and RxQueue handles.
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

// routeEntry is one configured (input port, color) of a router, and the
// owner of that pair's input queue. Entries are kept in first-configured
// order: the arbitration rotation walks this list, so the order is part
// of the simulated state. Each entry caches its resolved destinations,
// so the claim phase touches no coordinate math and no (port, color)
// lookups: a single-output entry holds its one destination queue inline,
// a multicast entry the index of its fan-out in its shard's slab
// (Fabric.fans). Resolution is lazy (first cycle the entry is claimed)
// because the destination queues may not exist yet while routes are
// still being configured; routes are static once stepping begins.
//
// The first eight bytes are never written while a Step runs: a
// neighbour's claim phase reads them (dest) while the owning shard
// writes the resolution caches behind them.
type routeEntry struct {
	q     int32 // input queue for (in, c) at this tile
	outs  PortMask
	in    Port
	c     Color
	sport Port // the single output port; valid when single

	dst int32 // resolved destination queue (single-output only); -1 until resolved
	// dstTile is the destination tile for hot re-marking when >= 0; a
	// negative value marks a core rx delivery at tile -(dstTile+1), which
	// fires the fabric's rx-delivery wake callbacks instead.
	dstTile int32
	// fan is 1 + the index of the entry's resolved fan-out in its shard's
	// slab, Fabric.fans[shard] (multicast only); 0 means not resolved yet.
	fan      int32
	dstShard uint16 // engine shard owning dstTile
	single   bool   // exactly one output port: the fast-path case
}

func (en *routeEntry) setOuts(outs PortMask) {
	en.outs = outs
	en.single = bits.OnesCount8(uint8(outs)) == 1
	en.sport = Port(bits.TrailingZeros8(uint8(outs)))
	en.dst, en.fan = -1, 0 // force re-resolution
}

// fanDest is one resolved destination of a multicast entry: the queue,
// the tile to re-mark hot (or the rxTile encoding of a core delivery)
// and the engine shard that commits the push.
type fanDest struct {
	q, tile int32
	shard   uint16
}

// fanout is a multicast entry's resolved destination list, in ascending
// port order — the order the claim phase stages its pushes in.
type fanout struct {
	n   int32
	dst [NumPorts]fanDest
}

// router holds the claim-phase-hot state of one tile's router. The
// claim walk touches every hot router every cycle, so this struct is
// kept small (24 bytes) and dense. Its entries live in the fabric's
// entry slab (arena.go).
type router struct {
	// occ has bit i set while entry i's input queue is non-empty
	// (maintained by push/pop through queue.bit), so the claim phase scans
	// only occupied entries. Valid only while !wide.
	occ uint64
	// rr is the output arbitration rotation counter. Only one rotation
	// slot exists in practice — every output of a router arbitrates off
	// the same walk — and the raw count is architectural state (hashed
	// by Fingerprint, captured by snapshots).
	rr int64
	// lo is the router's first entry in Fabric.ents, n its entry count
	// and room the slots reserved for it at lo (n ≤ room).
	lo      int32
	n, room uint8
	// rrIdx caches rr % n so the per-visit claim scan avoids an integer
	// divide; it is kept in step with rr by the claim phase and
	// recomputed whenever n or rr changes elsewhere.
	rrIdx uint8
	// wide marks a router with more than 64 entries, for which occ
	// cannot cover every entry; claim falls back to the full scan.
	wide bool
}

// Config sizes a fabric.
type Config struct {
	W, H int
	// QueueDepth is the per-(port,color) router queue capacity. The
	// hardware queues are shallow; 4 reproduces wormhole-like backpressure.
	// Both depths are at most 65535 words.
	QueueDepth int
	// RxDepth is the per-color core receive buffer capacity.
	RxDepth int
	// Stepper selects the stepping engine; nil means Sequential(). The
	// instance is bound to this fabric and must not be reused.
	Stepper *Stepper
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
	// The slabs (arena.go): queue headers, their rings, route entries.
	qs    []queue
	words []uint32
	ents  []routeEntry
	// rx[tile][c] is 1 + the index in qs of tile's receive buffer for
	// color c, 0 while there is none. SetRoute creates the buffer with
	// the first route that delivers c to the tile's core.
	rx [][MaxColors]int32

	cycle int64
	moves int64
	// activity tracking: tiles whose router might have movable words,
	// listed per shard so each engine shard owns its list exclusively.
	hot      []bool
	hotLists [][]int
	shardOf  []uint16
	// rxWake holds the registered rx-delivery callbacks; see OnRxDelivery.
	rxWake []func(tile int, c Color)
	// fans[s] holds the resolved fan-outs of shard s's multicast entries
	// (routeEntry.fan indexes it), appended by shard s's claim phase in
	// first-claim order so a cycle's multicast claims walk one slab.
	fans [][]fanout

	stepper *Stepper
}

// stagedPush is one claimed transfer awaiting commit. The destination
// queue is resolved at claim time, so commit is a straight index walk.
type stagedPush struct {
	q int32
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
	if cfg.QueueDepth > maxDepth || cfg.RxDepth > maxDepth {
		panic(fmt.Sprintf("fabric: queue depth %d / rx depth %d exceeds %d", cfg.QueueDepth, cfg.RxDepth, maxDepth))
	}
	f := &Fabric{
		cfg: cfg, W: cfg.W, H: cfg.H,
		routers: make([]router, cfg.W*cfg.H),
		rx:      make([][MaxColors]int32, cfg.W*cfg.H),
		hot:     make([]bool, cfg.W*cfg.H),
	}
	if cfg.Stepper == nil {
		cfg.Stepper = Sequential()
	}
	f.stepper = cfg.Stepper
	f.stepper.bind(f)
	return f
}

// Close stops the stepping engine's helper goroutines, if any started.
// It is idempotent, must not run concurrently with Step, and leaves the
// fabric usable (cycles step inline). Without it a runtime cleanup
// stops the helpers once the fabric is unreachable.
func (f *Fabric) Close() { f.stepper.Close() }

// RunSharded runs fn once per engine shard (ShardRanges gives its
// tiles): on the helpers when the least-loaded shard has at least
// parallelHotPerShard of work (the caller's count, e.g. runnable
// cores), inline otherwise. wse.Machine steps its cores through it, so
// all tile-local fabric access stays shard-owned.
func (f *Fabric) RunSharded(work int, fn func(shard int)) { f.stepper.run(work, f.stepper.n, fn) }

// RunPair runs a and b, which must touch disjoint state, and returns
// once both have finished: the caller runs a, and b too unless a helper
// of a multi-shard engine takes it first. On a one-shard or closed
// engine both run inline, a first.
func (f *Fabric) RunPair(a, b func()) {
	e := f.stepper
	e.pair = [2]func(){a, b}
	e.run(parallelHotPerShard, 2, e.pairJob)
	e.pair = [2]func(){}
}

// ShardRanges returns the engine's tile partition as [lo, hi) index
// ranges. Callers that step per-tile actors concurrently (wse.Machine)
// use the same partition so all tile-local fabric access stays
// shard-owned.
func (f *Fabric) ShardRanges() [][2]int {
	b := f.stepper.bounds
	out := make([][2]int, len(b)-1)
	for s := range out {
		out[s] = [2]int{b[s], b[s+1]}
	}
	return out
}

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
// goroutine running the shard that owns the tile, during the commit
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
// ("routing is configured offline, as part of compilation"). An empty
// outs on a (port, color) that has no route configures nothing, so a
// word routed there meets the "no route configured" panic; on one that
// has, it keeps the entry (and its arbitration slot) but routes nowhere.
func (f *Fabric) SetRoute(at Coord, in Port, c Color, outs PortMask) {
	ti := f.Index(at)
	if f.qs == nil {
		f.reserve()
	}
	if outs.Has(Ramp) {
		f.rxQueue(ti, c)
	}
	if en := f.entry(ti, in, c); en != nil {
		if en.fan != 0 {
			f.dropFanouts()
		}
		en.setOuts(outs)
		return
	}
	if outs == 0 {
		return
	}
	r := &f.routers[ti]
	en := routeEntry{q: f.newQueue(ti, f.cfg.QueueDepth), in: in, c: c}
	en.setOuts(outs)
	if i := f.addEntry(r, en); i < 64 && !r.wide {
		f.qs[en.q].bit = uint8(i)
	} else if !r.wide {
		// Too many entries for one occupancy word: disable the mask for
		// this router and let claim fall back to scanning every entry.
		r.wide = true
		for _, e := range f.entries(ti) {
			f.qs[e.q].bit = noOcc
		}
		r.occ = 0
	}
	r.rrIdx = uint8(r.rr % int64(r.n))
}

// entry returns tile ti's route entry for (in, c), or nil. The pointer
// aliases the entry slab (see entries).
func (f *Fabric) entry(ti int, in Port, c Color) *routeEntry {
	ents := f.entries(ti)
	for i := range ents {
		if ents[i].in == in && ents[i].c == c {
			return &ents[i]
		}
	}
	return nil
}

// inputQueue returns the index of tile ti's router input queue for
// (in, c), or -1 when no route is configured there.
func (f *Fabric) inputQueue(ti int, in Port, c Color) int32 {
	if en := f.entry(ti, in, c); en != nil {
		return en.q
	}
	return -1
}

// rxQueue returns the index of tile ti's receive buffer for color c,
// creating it if there is none. Configuration-time only: never called
// while a Step runs.
func (f *Fabric) rxQueue(ti int, c Color) int32 {
	if f.rx[ti][c] == 0 {
		f.rx[ti][c] = f.newQueue(ti, f.cfg.RxDepth) + 1
	}
	return f.rx[ti][c] - 1
}

// dest resolves where a word of color c leaving tile ti through port p
// lands: the core rx queue for the ramp (which SetRoute created with the
// route, and which its first resolution makes live), or the neighbouring
// router's input queue for a link hop, with the tile to re-mark (or the
// rxTile encoding of a core delivery) and the shard that commits the
// push. A route that leads nowhere panics here, the first time a word
// takes it.
func (f *Fabric) dest(ti int, p Port, c Color) fanDest {
	if p == Ramp {
		q := f.rx[ti][c] - 1
		f.qs[q].live = true
		return fanDest{q, rxTile(ti, c), f.shardOf[ti]}
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
	nq := f.inputQueue(nbi, p.Opposite(), c)
	if nq < 0 {
		panic(fmt.Sprintf("fabric: no route configured at %v for arrivals on (%v,%d)", nb, p.Opposite(), c))
	}
	return fanDest{nq, int32(nbi), f.shardOf[nbi]}
}

// resolveSingle fills en's cached destination for the single-output
// fast path. Called once per entry, from the claim phase of the shard
// that owns the tile.
func (f *Fabric) resolveSingle(ti int, en *routeEntry) {
	d := f.dest(ti, en.sport, en.c)
	en.dst, en.dstTile, en.dstShard = d.q, d.tile, d.shard
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
	for i := range f.ents {
		f.ents[i].fan = 0
	}
	for s := range f.fans {
		f.fans[s] = f.fans[s][:0]
	}
}

// Route returns the configured output mask for (in, color) at tile at.
func (f *Fabric) Route(at Coord, in Port, c Color) PortMask {
	if en := f.entry(f.Index(at), in, c); en != nil {
		return en.outs
	}
	return 0
}

// TxQueue is a core's handle on its tile's ramp input queue for one
// color, the mirror of RxQueue: the per-tile actor that sends on a color
// resolves the handle once (TxQueueOf) and then injects words without
// the coordinate math and route lookup Send pays per call. Like Send, it
// may only be used by the shard that owns the tile, at most once per
// cycle. A handle stays valid for the fabric's lifetime, across
// RestoreState. The zero TxQueue is no handle.
type TxQueue struct {
	f   *Fabric
	q   int32
	key int32 // tile·MaxColors + color + 1
}

// TxQueueOf returns the handle on tile's ramp input queue for color c.
// It panics when the tile has no route for c from its ramp.
func (f *Fabric) TxQueueOf(tile int, c Color) TxQueue {
	en := f.entry(tile, Ramp, c)
	if en == nil || en.outs == 0 {
		panic(fmt.Sprintf("fabric: tile %v has no route for injected color %d", f.CoordOf(tile), c))
	}
	return TxQueue{f, en.q, int32(tile*MaxColors+int(c)) + 1}
}

// Is reports whether t is the handle on tile's ramp input for color c.
func (t TxQueue) Is(tile int, c Color) bool { return t.key == int32(tile*MaxColors+int(c))+1 }

// Send injects one word's payload into the ramp queue. It returns false
// (and injects nothing) if the queue is full; the caller models a
// stalled send thread.
func (t TxQueue) Send(bits uint32) bool {
	f := t.f
	if !f.push(t.q, bits) {
		return false
	}
	f.markHot(int(f.qs[t.q].tile))
	return true
}

// Send injects one word from the core of tile at into its router's ramp
// input. It returns false (and injects nothing) if the ramp queue is full;
// the caller models a stalled send thread. At most one word per cycle can
// traverse the ramp link in each direction, which callers respect by
// calling Send at most once per cycle per tile. A sender that injects
// more than once holds a TxQueue instead.
func (f *Fabric) Send(at Coord, w Word) bool {
	return f.TxQueueOf(f.Index(at), w.Color).Send(w.Bits)
}

// Recv pops one word of the given color from tile at's core receive
// buffer. ok is false when none is available.
func (f *Fabric) Recv(at Coord, c Color) (Word, bool) {
	q := f.rx[f.Index(at)][c] - 1
	if q < 0 || f.qs[q].size == 0 {
		return Word{}, false
	}
	return Word{Color: c, Bits: f.pop(q)}, true
}

// RxLen returns the occupancy of tile at's receive buffer for color c.
func (f *Fabric) RxLen(at Coord, c Color) int {
	q := f.rx[f.Index(at)][c] - 1
	if q < 0 {
		return 0
	}
	return int(f.qs[q].size)
}

// RxQueue is a core's handle on one of its tile's receive buffers: the
// per-tile actor that owns a subscribed color resolves the handle once
// (RxQueueOf) and then pops arriving words without the coordinate math
// and index lookup Recv pays per call. Like Recv, it may only be used by
// the shard that owns the tile while the fabric is mid-Step. The zero
// RxQueue is no handle.
type RxQueue struct {
	f *Fabric
	q int32
}

// Valid reports whether q is a handle (not the zero RxQueue).
func (q RxQueue) Valid() bool { return q.f != nil }

// Len returns the number of words waiting.
func (q RxQueue) Len() int { return int(q.f.qs[q.q].size) }

// Pop removes and returns the oldest word's payload; the queue must not
// be empty.
func (q RxQueue) Pop() uint32 { return q.f.pop(q.q) }

// RxQueueOf returns the handle on tile's receive buffer for color c, or
// the zero RxQueue while no route has ever delivered there (a route
// makes the buffer live on its first word). Once valid the handle stays
// valid for the fabric's lifetime, across RestoreState.
func (f *Fabric) RxQueueOf(tile int, c Color) RxQueue {
	q := f.rx[tile][c] - 1
	if q < 0 || !f.qs[q].live {
		return RxQueue{}
	}
	return RxQueue{f, q}
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

// eachBusyInput calls fn for each of tile ti's route entries whose input
// queue holds words, in (port, color) order — the order Fingerprint and
// CaptureState walk a router's queues in.
func (f *Fabric) eachBusyInput(ti int, fn func(en *routeEntry)) {
	ents := f.entries(ti)
	var busy [2]uint64
	var pos [NumPorts * MaxColors]uint8
	for i := range ents {
		if f.qs[ents[i].q].size != 0 {
			k := int(ents[i].in)*MaxColors + int(ents[i].c)
			busy[k/64] |= 1 << (k % 64)
			pos[k] = uint8(i)
		}
	}
	for w, m := range busy {
		for ; m != 0; m &= m - 1 {
			fn(&ents[pos[w*64+bits.TrailingZeros64(m)]])
		}
	}
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
	mixQueue := func(tag uint64, q int32) {
		n := int(f.qs[q].size)
		mix(tag)
		mix(uint64(n))
		for k := 0; k < n; k++ {
			mix(uint64(f.at(q, k)))
		}
	}
	mix(uint64(f.cycle))
	mix(uint64(f.moves))
	for i := range f.routers {
		mix(uint64(f.routers[i].rr))
		f.eachBusyInput(i, func(en *routeEntry) {
			mixQueue(uint64(i)<<16|uint64(en.in)<<8|uint64(en.c), en.q)
		})
		for c, q := range f.rx[i] {
			if q != 0 && f.qs[q-1].size != 0 {
				mixQueue(uint64(i)<<16|uint64(NumPorts)<<8|uint64(c), q-1)
			}
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
		for _, en := range f.entries(i) {
			if f.qs[en.q].size != 0 {
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
