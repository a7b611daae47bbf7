package fabric

import (
	"fmt"
	"math/bits"
	"runtime"
)

// Stepper is the engine that advances a Fabric by one cycle. Two
// implementations exist: Sequential steps every router on the calling
// goroutine; Sharded partitions the tile grid into contiguous shards and
// steps them on a persistent worker pool with a two-phase
// (claim-then-commit) barrier per cycle.
//
// Determinism contract: both engines produce bit-identical architectural
// state, cycle for cycle — the same router queue contents and
// occupancies, the same core receive buffers, the same Moves counter.
// This holds because the claim phase reads only pre-cycle queue state
// (it mutates nothing another shard can observe), each queue receives at
// most one push and one pop per cycle, and every queue is committed by
// the shard that owns its tile, pops before pushes — exactly the order
// of the sequential engine. The equivalence golden test in equiv_test.go
// enforces the contract against state fingerprints every cycle, and
// FuzzRouterDelivery extends it to randomized flow configurations.
//
// A Stepper instance is bound to the first Fabric it is given and must
// not be shared between fabrics.
type Stepper interface {
	// Name identifies the engine, e.g. for benchmark sub-names.
	Name() string
	// Close releases the engine's worker pool, if one is running. It is
	// idempotent, a no-op for Sequential, and must not be called
	// concurrently with stepping. The engine stays usable afterwards:
	// subsequent cycles step inline.
	Close()

	bind(f *Fabric)
	step(f *Fabric)
	shards() [][2]int
	runShards(fn func(lo, hi int))
}

// Sequential returns the single-goroutine stepping engine. It is the
// default when Config.Stepper is nil.
func Sequential() Stepper { return &engine{workers: 1} }

// Sharded returns a stepping engine that partitions the tile grid into
// contiguous shards and steps them concurrently on a persistent worker
// pool. The requested worker count is clamped by a documented rule:
// workers <= 0 means "one per available CPU" (runtime.GOMAXPROCS(0) at
// construction), and at bind time the count is capped at the fabric's
// tile count (a shard must own at least one tile). Cycles with little
// in-flight traffic fall back to inline stepping, so the sharded engine
// is never pathologically slower than Sequential on a quiet fabric.
func Sharded(workers int) Stepper {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &engine{workers: workers}
}

// parallelHotPerShard is the minimum average hot-tile count per shard
// below which a cycle is stepped inline instead of on the worker pool
// (the state evolution is identical either way; only wall-clock
// differs).
const parallelHotPerShard = 24

// engine implements both steppers: Sequential is the one-shard special
// case, which also makes the sequential path the trivially-correct
// reference for the parallel one.
type engine struct {
	workers int
	f       *Fabric
	n       int   // shard count after binding
	bounds  []int // len n+1; shard s owns tiles [bounds[s], bounds[s+1])
	sh      []shardState

	// pool is the persistent worker set, started lazily on the first
	// parallel cycle and stopped by Close or by the fabric's runtime
	// cleanup. closed latches Close: later cycles step inline.
	pool   *workerPool
	closed bool

	// procs caches GOMAXPROCS at bind time; on a single-P runtime the
	// worker pool cannot win, so every cycle steps inline.
	procs int

	// forceParallel disables the quiet-cycle and single-P inline
	// fallbacks so tests can drive the concurrent path anywhere.
	forceParallel bool
}

// shardState is the per-shard staging area reused across cycles.
type shardState struct {
	pops     []*queue
	pushes   [][]stagedPush // indexed by destination shard
	stillHot []int
	moves    int64
}

func (e *engine) Name() string {
	if e.workers <= 1 {
		return "seq"
	}
	return fmt.Sprintf("sharded-%d", e.workers)
}

func (e *engine) shards() [][2]int {
	out := make([][2]int, e.n)
	for s := 0; s < e.n; s++ {
		out[s] = [2]int{e.bounds[s], e.bounds[s+1]}
	}
	return out
}

func (e *engine) bind(f *Fabric) {
	if e.f != nil {
		if e.f == f {
			return
		}
		panic("fabric: Stepper already bound to another Fabric")
	}
	e.f = f
	e.procs = runtime.GOMAXPROCS(0)
	tiles := f.W * f.H
	n := e.workers
	if n < 1 {
		n = 1
	}
	if n > tiles {
		n = tiles
	}
	// shardOf is uint16; more shards than that is never useful anyway.
	if n > 1<<16-1 {
		n = 1<<16 - 1
	}
	e.n = n
	e.bounds = make([]int, n+1)
	for s := 0; s <= n; s++ {
		e.bounds[s] = s * tiles / n
	}
	e.sh = make([]shardState, n)
	f.shardOf = make([]uint16, tiles)
	f.arenas = make([]shardArena, n)
	f.fans = make([][]fanout, n)
	for s := 0; s < n; s++ {
		e.sh[s].pushes = make([][]stagedPush, n)
		for ti := e.bounds[s]; ti < e.bounds[s+1]; ti++ {
			f.shardOf[ti] = uint16(s)
		}
	}
	f.hotLists = make([][]int, n)
}

// Close stops the persistent worker pool. Idempotent; the engine keeps
// stepping correctly (inline) afterwards.
func (e *engine) Close() {
	e.closed = true
	if e.pool != nil {
		e.pool.close()
		e.pool = nil
	}
}

// ensurePool starts the worker pool on first use and arranges for it to
// be closed when the fabric is garbage-collected without an explicit
// Close. The cleanup closure captures only the pool — never the engine
// or fabric — so registering it does not keep the fabric alive.
func (e *engine) ensurePool() *workerPool {
	if e.pool == nil {
		e.pool = newWorkerPool(e.n)
		runtime.AddCleanup(e.f, func(p *workerPool) { p.close() }, e.pool)
	}
	return e.pool
}

func (e *engine) step(f *Fabric) {
	if e.n == 1 {
		e.claim(0)
		e.commit(0)
	} else {
		hot := 0
		for s := range f.hotLists {
			hot += len(f.hotLists[s])
		}
		inline := hot < parallelHotPerShard*e.n || e.procs == 1
		if e.closed || (inline && !e.forceParallel) {
			for s := 0; s < e.n; s++ {
				e.claim(s)
			}
			for s := 0; s < e.n; s++ {
				e.commit(s)
			}
		} else {
			e.stepParallel()
		}
	}
	for s := range e.sh {
		f.moves += e.sh[s].moves
		e.sh[s].moves = 0
	}
}

// stepParallel runs one cycle on the worker pool: all shards claim, the
// pool's reusable barrier establishes that every staged transfer is
// visible, then all shards commit their own queues.
func (e *engine) stepParallel() {
	p := e.ensurePool()
	p.run(func(s int) {
		e.claim(s)
		p.barrier()
		e.commit(s)
	})
}

// runShards implements Fabric.RunSharded: fn over every shard range, on
// the pool when the engine is sharded and the host can exploit it.
func (e *engine) runShards(fn func(lo, hi int)) {
	if e.n == 1 || e.procs == 1 || e.closed {
		for s := 0; s < e.n; s++ {
			fn(e.bounds[s], e.bounds[s+1])
		}
		return
	}
	p := e.ensurePool()
	p.run(func(s int) { fn(e.bounds[s], e.bounds[s+1]) })
}

// claim runs the claim phase for shard s: for every hot tile, try to
// move the head word of each input queue toward its configured outputs,
// subject to one word per output link per cycle and space in each
// destination queue, all judged against pre-cycle state. Successful
// claims are staged; nothing observable by other shards is mutated.
//
// The common case — a route with exactly one output port — takes a fast
// path with no coordinate math and no port scanning: the route entry
// caches the destination queue, so a claim is an occupancy compare plus
// two appends. Multicast routes cache their whole fan-out the same way
// (claimMulticast).
func (e *engine) claim(s int) {
	f := e.f
	st := &e.sh[s]
	st.pops = st.pops[:0]
	for d := range st.pushes {
		st.pushes[d] = st.pushes[d][:0]
	}
	st.stillHot = st.stillHot[:0]

	cur := f.hotLists[s]
	// The commit phase re-marks hot tiles into the same backing array;
	// cur is fully consumed before any commit runs.
	f.hotLists[s] = cur[:0]

	for _, ti := range cur {
		f.hot[ti] = false
		r := &f.routers[ti]
		n := len(r.active)
		if n == 0 {
			continue
		}
		idx := int(r.rrIdx)
		r.rr++
		r.rrIdx++
		if int(r.rrIdx) == n {
			r.rrIdx = 0
		}
		if !r.wide {
			// Occupancy-mask path: the claim scan visits only entries whose
			// input queue is non-empty (r.occ bit set), in exactly the
			// rotation order of the full scan — indices idx..n-1 then
			// 0..idx-1. The mask is pre-cycle state (claim pops nothing), so
			// claim decisions are unchanged; only the skipping of empty
			// entries is faster. hasWords of the full scan is occ != 0.
			occ := r.occ
			if occ == 0 {
				continue
			}
			var outClaimed PortMask
			for m := occ >> uint(idx); m != 0; m &= m - 1 {
				e.claimEntry(s, ti, &r.active[idx+bits.TrailingZeros64(m)], &outClaimed)
			}
			for m := occ & (1<<uint(idx) - 1); m != 0; m &= m - 1 {
				e.claimEntry(s, ti, &r.active[bits.TrailingZeros64(m)], &outClaimed)
			}
			st.stillHot = append(st.stillHot, ti)
			continue
		}
		var outClaimed PortMask
		hasWords := false
		for k := 0; k < n; k++ {
			en := &r.active[idx]
			idx++
			if idx == n {
				idx = 0
			}
			if en.q.size == 0 {
				continue
			}
			hasWords = true
			e.claimEntry(s, ti, en, &outClaimed)
		}
		if hasWords {
			st.stillHot = append(st.stillHot, ti)
		}
	}
}

// claimEntry claims the head word of one non-empty route entry: the
// cached single-output fast path, or the cached multicast fan-out.
func (e *engine) claimEntry(s, ti int, en *routeEntry, outClaimed *PortMask) {
	if en.single {
		p := en.sport
		if outClaimed.Has(p) {
			return
		}
		dst := en.dst
		if dst == nil {
			dst = e.f.resolveSingle(ti, en)
		}
		if dst.size == int32(len(dst.buf)) {
			return // destination full; word waits
		}
		*outClaimed |= 1 << p
		st := &e.sh[s]
		q := en.q
		st.pops = append(st.pops, q)
		st.pushes[en.dstShard] = append(st.pushes[en.dstShard],
			stagedPush{q: dst, tile: en.dstTile, bits: q.buf[q.head]})
		return
	}
	e.claimMulticast(s, ti, en, outClaimed)
}

// claimMulticast claims an entry that fans out to several ports, all or
// nothing: every target link must be free and every destination queue
// must have space. The destinations were resolved on the entry's first
// claim (resolveFanout), so this is one mask test, one fullness compare
// per destination and one append per destination, staged in ascending
// port order.
func (e *engine) claimMulticast(s, ti int, en *routeEntry, outClaimed *PortMask) {
	var fo *fanout
	if en.fan != 0 {
		fo = &e.f.fans[s][en.fan-1]
	} else {
		fo = e.f.resolveFanout(ti, en)
	}
	if *outClaimed&en.outs != 0 {
		return
	}
	dsts := fo.dst[:fo.n]
	for i := range dsts {
		if q := dsts[i].q; q.size == int32(len(q.buf)) {
			return // a destination is full; the word waits
		}
	}
	*outClaimed |= en.outs
	st := &e.sh[s]
	bits := en.q.peek()
	st.pops = append(st.pops, en.q)
	for i := range dsts {
		d := &dsts[i]
		st.pushes[d.shard] = append(st.pushes[d.shard], stagedPush{q: d.q, tile: d.tile, bits: bits})
	}
}

// commit applies shard s's staged transfers: first every pop of a queue
// this shard owns (freeing slots exactly as the sequential engine does),
// then every push destined for this shard, gathered from all source
// shards in shard order. Core rx deliveries fire the fabric's
// rx-delivery wake callbacks from here, on the goroutine of the shard
// that owns the destination tile — the contract OnRxDelivery documents.
func (e *engine) commit(s int) {
	f := e.f
	st := &e.sh[s]
	for _, q := range st.pops {
		q.pop()
	}
	st.moves += int64(len(st.pops))
	for src := 0; src < e.n; src++ {
		for _, ps := range e.sh[src].pushes[s] {
			if ps.tile < 0 {
				ps.q.push(ps.bits)
				for _, fn := range f.rxWake {
					fn(rxTileIndex(ps.tile), rxColor(ps.tile))
				}
				continue
			}
			if !ps.q.push(ps.bits) {
				panic("fabric: committed push overflowed (claim phase bug)")
			}
			f.markHot(int(ps.tile))
		}
	}
	for _, ti := range st.stillHot {
		f.markHot(ti)
	}
}
