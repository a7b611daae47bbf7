package fabric

import (
	"math/bits"
	"runtime"
)

// Sequential returns the single-goroutine stepping engine. It is the
// default when Config.Stepper is nil.
func Sequential() *Stepper { return &Stepper{workers: 1} }

// Sharded returns an engine that partitions the tile grid into
// contiguous shards: workers of them, capped at bind time at the tile
// count; or, when workers <= 0, one per core (procs at construction)
// but no more than one per parallelHotPerShard tiles, so every shard can
// reach the work that sends a job to the helpers. It starts
// min(shards, procs) - 1 helper goroutines on its first parallel job,
// none when procs is 1; a job goes to them only when every shard has
// parallelHotPerShard of work, so a quiet fabric steps inline.
func Sharded(workers int) *Stepper {
	if workers <= 0 {
		return &Stepper{workers: procs(), auto: true}
	}
	return &Stepper{workers: workers}
}

// procs is the cores a stepped cycle may use: GOMAXPROCS, or the CPUs
// the process may run on if fewer. A helper beyond them would spin
// against the caller for a CPU, and one the OS descheduled while it
// holds a shard stalls the cycle.
func procs() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// ForceParallel, a test hook, makes f's stepper hand every job to
// helpers, one per shard beyond the first, whatever the P count, load
// and other steppers. A no-op on one shard; call it before stepping.
func ForceParallel(f *Fabric) {
	if e := f.stepper; e.n > 1 {
		e.helpers, e.limit, e.forced = e.n-1, 1<<30, true
	}
}

// parallelHotPerShard is the work — hot tiles of a claim, runnable
// cores of a core step — every shard must have for a job to go to the
// helpers instead of running inline (the state evolution is identical
// either way; only wall-clock differs).
const parallelHotPerShard = 64

// Stepper is the engine that advances a Fabric by one cycle:
// Sequential, or Sharded — bit-identical (see the package doc).
// Sequential is the one-shard special case, which also makes it the
// trivially-correct reference for the parallel path. A Stepper is bound
// to the first Fabric it is given and must not be shared between
// fabrics.
type Stepper struct {
	workers int
	auto    bool // Sharded(0): at most one shard per parallelHotPerShard tiles
	f       *Fabric
	n       int   // shard count after binding
	bounds  []int // len n+1; shard s owns tiles [bounds[s], bounds[s+1])
	sh      []shardState

	// helpers is min(n, procs) - 1 (0: every job inline), limit the
	// stepping goroutines a helper may join (procs); forced is
	// ForceParallel's.
	helpers, limit int
	forced         bool

	// ho is the handoff, started by the first parallel job and stopped
	// by Close or by the fabric's runtime cleanup; closed latches Close,
	// after which every job runs inline.
	ho     *handoff
	closed bool

	// The jobs, held here so a cycle allocates nothing: the claim and
	// commit phases, RunPair's over pair, and the one the handoff runs.
	claimJob, commitJob, pairJob, job func(task int)
	pair                              [2]func()
}

// shardState is the per-shard staging area reused across cycles.
type shardState struct {
	pops     []int32
	pushes   [][]stagedPush // indexed by destination shard
	stillHot []int
	moves    int64
	// near is [first, last+1) of the shards this one trades pushes
	// with: a push lands on the pushing tile or a neighbour, at most W
	// tiles away in index order, so only the shards owning tiles
	// [lo-W, hi+W) can send to or receive from [lo, hi).
	near [2]int
}

func (e *Stepper) bind(f *Fabric) {
	if e.f != nil {
		if e.f == f {
			return
		}
		panic("fabric: Stepper already bound to another Fabric")
	}
	e.f = f
	tiles := f.W * f.H
	n := min(e.workers, tiles)
	if e.auto {
		n = min(n, tiles/parallelHotPerShard)
	}
	n = max(n, 1)
	// shardOf is uint16; more shards than that is never useful anyway.
	if n > 1<<16-1 {
		n = 1<<16 - 1
	}
	e.n = n
	e.limit = procs()
	e.helpers = min(n, e.limit) - 1
	e.bounds = make([]int, n+1)
	for s := 0; s <= n; s++ {
		e.bounds[s] = s * tiles / n
	}
	e.sh = make([]shardState, n)
	f.shardOf = make([]uint16, tiles)
	f.fans = make([][]fanout, n)
	for s := 0; s < n; s++ {
		e.sh[s].pushes = make([][]stagedPush, n)
		for ti := e.bounds[s]; ti < e.bounds[s+1]; ti++ {
			f.shardOf[ti] = uint16(s)
		}
	}
	for s := range e.sh {
		first, last := max(0, e.bounds[s]-f.W), min(tiles, e.bounds[s+1]+f.W)-1
		e.sh[s].near = [2]int{int(f.shardOf[first]), int(f.shardOf[last]) + 1}
	}
	f.hotLists = make([][]int, n)
	e.claimJob, e.commitJob = e.claim, e.commit
	e.pairJob = func(i int) { e.pair[i]() }
}

// Close stops the engine's helper goroutines, if any started. It is
// idempotent, a no-op for Sequential, and must not be called
// concurrently with stepping. The engine stays usable afterwards:
// later cycles step inline.
func (e *Stepper) Close() {
	e.closed = true
	if e.ho != nil {
		e.ho.close()
		e.ho = nil
	}
}

// parallel reports whether a job whose least-loaded shard has work
// units goes to the helpers, starting the handoff on first use.
func (e *Stepper) parallel(work int) bool {
	if e.helpers == 0 || e.closed {
		return false
	}
	par := e.forced || work >= parallelHotPerShard
	if par && e.ho == nil {
		// The cleanup closure captures only the handoff — never the
		// engine or fabric — so registering it does not keep the fabric
		// alive.
		e.ho = newHandoff(e.helpers, e.limit)
		runtime.AddCleanup(e.f, func(h *handoff) { h.close() }, e.ho)
	}
	return par
}

func (e *Stepper) step(f *Fabric) {
	hot := len(f.hotLists[0])
	for s := 1; s < e.n; s++ {
		hot = min(hot, len(f.hotLists[s]))
	}
	e.run(hot, e.n, e.claimJob)
	e.run(hot, e.n, e.commitJob)
	for s := range e.sh {
		f.moves += e.sh[s].moves
		e.sh[s].moves = 0
	}
}

// run runs fn(i) for every task i in [0, n): on the helpers when the
// job's least-loaded shard has work units, inline otherwise.
func (e *Stepper) run(work, n int, fn func(task int)) {
	if !e.parallel(work) {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	e.job = fn
	e.ho.run(&e.job, n)
	e.job = nil
}

// claim runs the claim phase for shard s: for every hot tile, try to
// move the head word of each input queue toward its configured outputs,
// subject to one word per output link per cycle and space in each
// destination queue, all judged against pre-cycle state. Successful
// claims are staged; nothing observable by other shards is mutated.
//
// The common case — a route with exactly one output port — takes a fast
// path with no coordinate math and no port scanning: the route entry
// caches the destination queue's index, so a claim is an occupancy
// compare plus two appends. Multicast routes cache their whole fan-out
// the same way (claimMulticast).
func (e *Stepper) claim(s int) {
	f := e.f
	st := &e.sh[s]
	st.pops = st.pops[:0]
	for d := st.near[0]; d < st.near[1]; d++ {
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
		n := int(r.n)
		if n == 0 {
			continue
		}
		ents := f.ents[r.lo : int(r.lo)+n]
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
				e.claimEntry(s, ti, &ents[idx+bits.TrailingZeros64(m)], &outClaimed)
			}
			for m := occ & (1<<uint(idx) - 1); m != 0; m &= m - 1 {
				e.claimEntry(s, ti, &ents[bits.TrailingZeros64(m)], &outClaimed)
			}
			st.stillHot = append(st.stillHot, ti)
			continue
		}
		var outClaimed PortMask
		hasWords := false
		for k := 0; k < n; k++ {
			en := &ents[idx]
			idx++
			if idx == n {
				idx = 0
			}
			if f.qs[en.q].size == 0 {
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
func (e *Stepper) claimEntry(s, ti int, en *routeEntry, outClaimed *PortMask) {
	if en.single {
		p := en.sport
		if outClaimed.Has(p) {
			return
		}
		f := e.f
		if en.dst < 0 {
			f.resolveSingle(ti, en)
		}
		if dst := &f.qs[en.dst]; dst.size == dst.cap {
			return // destination full; word waits
		}
		*outClaimed |= 1 << p
		st := &e.sh[s]
		st.pops = append(st.pops, en.q)
		st.pushes[en.dstShard] = append(st.pushes[en.dstShard],
			stagedPush{q: en.dst, tile: en.dstTile, bits: f.peek(en.q)})
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
func (e *Stepper) claimMulticast(s, ti int, en *routeEntry, outClaimed *PortMask) {
	f := e.f
	var fo *fanout
	if en.fan != 0 {
		fo = &f.fans[s][en.fan-1]
	} else {
		fo = f.resolveFanout(ti, en)
	}
	if *outClaimed&en.outs != 0 {
		return
	}
	dsts := fo.dst[:fo.n]
	for i := range dsts {
		if q := &f.qs[dsts[i].q]; q.size == q.cap {
			return // a destination is full; the word waits
		}
	}
	*outClaimed |= en.outs
	st := &e.sh[s]
	bits := f.peek(en.q)
	st.pops = append(st.pops, en.q)
	for i := range dsts {
		d := &dsts[i]
		st.pushes[d.shard] = append(st.pushes[d.shard], stagedPush{q: d.q, tile: d.tile, bits: bits})
	}
}

// commit applies shard s's staged transfers: first every pop of a queue
// this shard owns (freeing slots exactly as the sequential engine does),
// then every push destined for this shard, gathered from the source
// shards of its near window in shard order. Core rx deliveries fire the fabric's
// rx-delivery wake callbacks from here, on the goroutine of the shard
// that owns the destination tile — the contract OnRxDelivery documents.
func (e *Stepper) commit(s int) {
	f := e.f
	st := &e.sh[s]
	for _, q := range st.pops {
		f.pop(q)
	}
	st.moves += int64(len(st.pops))
	for src := st.near[0]; src < st.near[1]; src++ {
		for _, ps := range e.sh[src].pushes[s] {
			if ps.tile < 0 {
				f.push(ps.q, ps.bits)
				for _, fn := range f.rxWake {
					fn(rxTileIndex(ps.tile), rxColor(ps.tile))
				}
				continue
			}
			if !f.push(ps.q, ps.bits) {
				panic("fabric: committed push overflowed (claim phase bug)")
			}
			f.markHot(int(ps.tile))
		}
	}
	for _, ti := range st.stillHot {
		f.markHot(ti)
	}
}
