package perfmodel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file is the one word-granular replay of a compiled stencil
// exchange in the repository. The exchange phases of stencilc's programs
// bottleneck on microarchitectural details — the one-word-per-cycle ramp
// in each direction, the router's per-output-link round-robin
// arbitration, the depth-4 hardware queues, the depth-8 stream buffers,
// the SIMD-4 datapath shared by the receive threads — and no closed form
// survives all of them (the cost is not even symmetric in x and y,
// because the send threads drain in slot order). So the model replays
// the schedule with a handful of occupancy counters per tile: no
// simulated memory, no arithmetic, no data. It is calibrated against
// nothing; the engine-equivalence tests pin it bit for bit against cycle
// simulation, and TestExchangeReplayLockstep pins it against the
// cycle-by-cycle walk it replaced.
//
// It is parameterized by what a live machine looks like when a phase
// starts:
//
//   - each router's real route-entry layout, including entries other
//     subsystems configured (an AllReduce tree, a neighbouring
//     program). Those entries are quiescent for the whole phase, but
//     they still occupy arbitration rotation slots, so they shift which
//     entry the round-robin scan visits first;
//   - each router's current rotation counter, which a solver advances a
//     little more on every phase;
//   - the fabric's current hot set — a router left hot by the previous
//     phase takes one rotation charge on the first cycle before it
//     cools.
//
// and answers "exactly what does one application do to this machine's
// architectural counters": total cycles and word moves, every router's
// final rotation and the final hot set (fabric.ApplyReplay's inputs),
// and every core's busy-cycle and receive-lane tallies (the
// Machine.Fingerprint-visible datapath counters). stencilc.Program3D's
// fast-forward path is the live consumer; StencilApply3D/2D.Cycles
// (stencilapply.go) run the same engine on a fresh fabric.
//
// A Run costs what its word moves cost and nothing for cycles or entries
// in which nothing happens:
//
//   - Occupancy mask. Each router keeps one bit per route entry, set iff
//     the entry's source queue holds a word: set on the ramp push or link
//     push that fills the queue, cleared on the pop that empties it. The
//     arbitration scan walks the set bits in rotation order
//     (bits.TrailingZeros) from rr mod n, which is kept incrementally, so
//     empty and dead entries cost nothing and "has words" is mask != 0.
//   - Closed-form task stages. A compute task touches no queue, so it is
//     accounted whole on entry (busy += task) and the tile sleeps until
//     the task's last cycle. A tile is stepped only at its wake cycle: a
//     tile that is done, not yet started or asleep in a task is skipped
//     while its core receive buffers are empty; a word delivered to them
//     wakes it on the next cycle. When no router is hot and every tile is
//     asleep, the clock jumps to the earliest wake. Reject, never
//     approximate: a pending receive word always keeps the tile on the
//     stepped path, and a zero-length task (a state no simulated machine
//     reaches) is refused when the replay is built.
//   - Compact state. One slab each for tiles, route entries and stages;
//     queue and buffer occupancies are bytes; a round's legs live inline
//     in the tile while it runs, so stages are read-only after build.
//
// Hot order is part of the contract: routers are visited in hot-list
// order, pushes mark their destination hot in visit order, and routers
// that still hold words re-mark themselves after all pushes. The final
// list is handed to fabric.ApplyReplay, whose hot-list order decides the
// next phase's visit order in turn, so the replay reproduces it exactly
// rather than as a set.

// ReplayEntryKind classifies one configured route entry of a router for
// the replay.
type ReplayEntryKind uint8

const (
	// ReplayDead is an entry of some other subsystem: empty for the
	// whole phase, never claiming, but still occupying a rotation slot
	// (the arbitration index is computed modulo the full entry count).
	ReplayDead ReplayEntryKind = iota
	// ReplayInject is a ramp entry of a directional exchange color:
	// words the core sends, forwarded one hop to the neighbour in the
	// color's direction of travel.
	ReplayInject
	// ReplayDeliver is a link entry of a directional exchange color:
	// words arriving from a neighbour, delivered to the core's receive
	// buffer for that color.
	ReplayDeliver
)

// ReplayEntry mirrors one route entry in arbitration order. Color is
// the directional exchange color (saEast..saNorth — the direction of
// travel, stencilc's assignment) and is ignored for ReplayDead.
type ReplayEntry struct {
	Kind  ReplayEntryKind
	Color uint8
}

// ReplayTx is one round's send leg: Words fabric words injected on a
// directional color, one per cycle across the ramp.
type ReplayTx struct {
	Color int
	Words int
}

// ReplayRx is one round's receive leg: Elems fp16 elements consumed
// from the color's stream buffer through the shared datapath lanes.
type ReplayRx struct {
	Color int
	Elems int
}

// ReplayStage is one step of a tile's program: Task > 0 burns that many
// datapath cycles; Task < 0 is an exchange round whose Tx and Rx legs
// are given in thread slot order (at most four of each). Task == 0 is
// rejected by NewExchangeReplay.
type ReplayStage struct {
	Task int
	Tx   []ReplayTx
	Rx   []ReplayRx
}

// ReplayTileSpec is the static description of one tile: its router's
// entry layout and its program's stage list. The spec is captured once
// by NewExchangeReplay; per-phase state (rotation seeds, the hot set)
// is passed to Run.
type ReplayTileSpec struct {
	Entries []ReplayEntry
	Stages  []ReplayStage
}

// ReplayResult is what one replayed application does to the machine.
// The slices are owned by the ExchangeReplay and valid until its next
// Run.
type ReplayResult struct {
	Cycles int64 // cycles the phase takes, first send to last retire
	Moves  int64 // fabric word moves
	Busy   []int64
	// RxLanes is each core's datapath lane issues from receive threads;
	// compute-task lanes are statically known to the caller and added
	// there.
	RxLanes []int64
	RR      []int64 // each router's final arbitration rotation
	Hot     []int   // tiles hot after the final cycle, in hot-list order
}

// Directional exchange colors, matching stencilc's assignment: the name
// is the direction of travel.
const (
	saEast = iota
	saWest
	saSouth
	saNorth
)

// Router ports, matching the fabric package's order.
const (
	saPortN = iota
	saPortE
	saPortS
	saPortW
	saPortRamp
)

// Hardware shape, matching fabric.Config defaults and the programs'
// stream-buffer allocation (stencilc's fast-forward gate rejects any
// other).
const (
	saQueueDepth = 4 // router input queue and core receive buffer, words
	saBufElems   = 8 // stream buffer, fp16 elements (4 words)
	saLanes      = 4 // SIMD datapath lanes
)

// A tile's hardware queues, as indices into xrTile.q: ramp input queues
// by injected color, link input queues by arriving color, core receive
// buffers by color. Only occupancy matters for timing. The first
// xrRx queues feed route entries.
const (
	xrRamp = 0
	xrLink = 4
	xrRx   = 8

	xrMaxEntries = 16 // width of the occupancy mask
	xrMaxLegs    = 4  // send (and receive) legs per round
)

// xrNever is the wake cycle of a tile with nothing left to do.
const xrNever = math.MaxInt64

// xrEntry is a resolved live route entry: source queue src of its own
// router's tile to queue dst of tile (a neighbour's link queue for an
// inject entry, the tile's own receive buffer for a deliver entry)
// through output port.
type xrEntry struct {
	tile           int32
	src, dst, port uint8
}

// xrStage is one non-empty stage, read-only after build.
type xrStage struct {
	task         int32 // > 0: datapath cycles; 0: an exchange round
	ntx, nrx     uint8
	txCol, rxCol [xrMaxLegs]uint8
	txN, rxN     [xrMaxLegs]int32
}

type xrTile struct {
	// Router state.
	q       [12]uint8 // queue occupancies, words
	srcBits [xrRx]uint16
	occ     uint16 // bit j ⇔ entry j's source queue is non-empty
	n, ri   uint8  // entry count; rr mod n
	hot     bool
	e0      int32 // first entry in ExchangeReplay.entries

	// Program state.
	task         bool     // current stage is a task, retiring at start
	open         uint8    // current round's legs with words left
	ntx, nrx     uint8    // current round's legs, copied from the stage
	bufE         [4]uint8 // stream-buffer occupancy, elements, by color
	txCol, rxCol [xrMaxLegs]uint8
	txRem, rxRem [xrMaxLegs]int32
	cur, s0, s1  int32 // current stage and stage range in ExchangeReplay.stages
	start        int64 // first cycle the current stage acts (a task: retires)
}

// xrMove is one claimed word move, committed after every hot router has
// claimed against pre-cycle occupancies.
type xrMove struct {
	from, to int32
	src, dst uint8
}

// ExchangeReplay replays one application of a compiled exchange-phase
// program against a live fabric context. Build it once per program
// (NewExchangeReplay walks every tile's spec); Run resets and replays
// without allocating.
type ExchangeReplay struct {
	tiles   []xrTile
	entries []xrEntry
	stages  []xrStage
	wake    []int64 // next cycle each tile must be stepped
	left    int     // tiles not yet done

	hotCur, hotSpare, hotOut []int
	moves                    []xrMove
	still                    []int

	busy, rxLanes, rr []int64

	runs, cycles, jumped int64
}

// xrDelta and xrPort map a direction-of-travel color to the neighbour
// offset and output port a word takes, matching the fabric's geometry.
var (
	xrDelta = [4][2]int{saEast: {1, 0}, saWest: {-1, 0}, saSouth: {0, 1}, saNorth: {0, -1}}
	xrPort  = [4]uint8{saEast: saPortE, saWest: saPortW, saSouth: saPortS, saNorth: saPortN}
)

// NewExchangeReplay builds the replay for a w×h fabric from per-tile
// specs (row-major). It panics on what no exchange lowering produces
// and the replay therefore refuses to model: an inject entry whose
// travel direction leaves the fabric, a router with more entries than
// the occupancy mask holds, a round with more than four send or receive
// legs, and a zero-length task.
func NewExchangeReplay(w, h int, spec func(ti int) ReplayTileSpec) *ExchangeReplay {
	n := w * h
	r := &ExchangeReplay{
		tiles:   make([]xrTile, n),
		wake:    make([]int64, n),
		busy:    make([]int64, n),
		rxLanes: make([]int64, n),
		rr:      make([]int64, n),
	}
	for ti := 0; ti < n; ti++ {
		t := &r.tiles[ti]
		s := spec(ti)
		x, y := ti%w, ti/w
		if len(s.Entries) > xrMaxEntries {
			panic(fmt.Sprintf("perfmodel: tile %d has %d route entries, the replay models at most %d", ti, len(s.Entries), xrMaxEntries))
		}
		// Slabs grow by what the remaining tiles need if they look like
		// this one: a few reallocations at 358k tiles instead of twenty.
		if need := len(s.Entries); len(r.entries)+need > cap(r.entries) {
			r.entries = slices.Grow(r.entries, need*(n-ti))
		}
		if need := len(s.Stages); len(r.stages)+need > cap(r.stages) {
			r.stages = slices.Grow(r.stages, need*(n-ti))
		}
		t.e0, t.n = int32(len(r.entries)), uint8(len(s.Entries))
		for j, e := range s.Entries {
			c := e.Color
			en := xrEntry{tile: -1}
			switch e.Kind {
			case ReplayInject:
				nx, ny := x+xrDelta[c][0], y+xrDelta[c][1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					panic(fmt.Sprintf("perfmodel: inject entry at tile %d color %d leaves the fabric", ti, c))
				}
				en = xrEntry{tile: int32(ny*w + nx), src: xrRamp + c, dst: xrLink + c, port: xrPort[c]}
			case ReplayDeliver:
				en = xrEntry{tile: int32(ti), src: xrLink + c, dst: xrRx + c, port: saPortRamp}
			}
			if en.tile >= 0 {
				t.srcBits[en.src] |= 1 << j
			}
			r.entries = append(r.entries, en)
		}
		t.s0 = int32(len(r.stages))
		for si, sp := range s.Stages {
			if sp.Task == 0 {
				panic(fmt.Sprintf("perfmodel: tile %d stage %d is a zero-length task", ti, si))
			}
			if len(sp.Tx) > xrMaxLegs || len(sp.Rx) > xrMaxLegs {
				panic(fmt.Sprintf("perfmodel: tile %d stage %d has %d send and %d receive legs, the replay models at most %d", ti, si, len(sp.Tx), len(sp.Rx), xrMaxLegs))
			}
			count := func(n int) int32 {
				if n < 0 || n > math.MaxInt32 {
					panic(fmt.Sprintf("perfmodel: tile %d stage %d: count %d out of range", ti, si, n))
				}
				return int32(n)
			}
			if sp.Task > 0 {
				r.stages = append(r.stages, xrStage{task: count(sp.Task)})
				continue
			}
			if len(sp.Tx)+len(sp.Rx) == 0 {
				continue // empty relay round: skipped for free, as in launchRound
			}
			st := xrStage{ntx: uint8(len(sp.Tx)), nrx: uint8(len(sp.Rx))}
			for k, tx := range sp.Tx {
				st.txCol[k], st.txN[k] = uint8(tx.Color), count(tx.Words)
			}
			for k, rx := range sp.Rx {
				st.rxCol[k], st.rxN[k] = uint8(rx.Color), count(rx.Elems)
			}
			r.stages = append(r.stages, st)
		}
		t.s1 = int32(len(r.stages))
	}
	return r
}

// Stats returns what the replay has done since it was built: Run calls,
// the cycles they replayed, and how many of those cycles the clock
// jumped over rather than stepped.
func (r *ExchangeReplay) Stats() (runs, cycles, jumped int64) {
	return r.runs, r.cycles, r.jumped
}

// Run replays one application: rr0 seeds each router's rotation, hot0
// is the fabric's current hot set. The result slices alias the
// replay's buffers and are valid until the next Run.
func (r *ExchangeReplay) Run(rr0 func(ti int) int64, hot0 []int) ReplayResult {
	r.left = len(r.tiles)
	next := int64(xrNever)
	for ti := range r.tiles {
		t := &r.tiles[ti]
		rr := rr0(ti)
		r.rr[ti] = rr
		if t.n > 0 {
			t.ri = uint8(rr % int64(t.n))
		}
		t.q = [12]uint8{}
		t.bufE = [4]uint8{}
		t.occ = 0
		t.hot = false
		t.cur = t.s0 - 1
		r.busy[ti] = 0
		r.rxLanes[ti] = 0
		r.advance(ti, t, 0)
		r.wake[ti] = t.wakeAfter(0)
		next = min(next, r.wake[ti])
	}
	r.hotCur = r.hotCur[:0]
	for _, ti := range hot0 {
		r.markHot(ti)
	}
	var moves, cycle int64
	for {
		// Nothing happens in a cycle with no hot router and no tile
		// due, so the clock moves straight to the earliest wake.
		if len(r.hotCur) > 0 || r.left == 0 {
			cycle++
		} else {
			r.jumped += next - cycle - 1
			cycle = next
		}
		// One application is bounded well under words · depth ·
		// diameter; the guard trips on legs that can never complete
		// (every tile asleep for good, or a round spinning on words
		// nobody sends).
		if cycle > 1<<40 {
			panic("perfmodel: exchange replay did not terminate")
		}
		next = xrNever
		for ti, wk := range r.wake {
			if wk <= cycle {
				wk = r.stepTile(ti, cycle)
				r.wake[ti] = wk
			}
			next = min(next, wk)
		}
		moves += r.fabricStep(cycle)
		if r.left == 0 {
			r.hotOut = append(r.hotOut[:0], r.hotCur...)
			r.runs++
			r.cycles += cycle
			return ReplayResult{
				Cycles: cycle, Moves: moves,
				Busy: r.busy, RxLanes: r.rxLanes, RR: r.rr, Hot: r.hotOut,
			}
		}
	}
}

// wakeAfter returns the next cycle the tile must be stepped, given that
// it has been stepped (or needed no step) through cycle: the next cycle
// while a received word waits for stream-buffer space, never once the
// program is done, otherwise when the current stage next acts.
func (t *xrTile) wakeAfter(cycle int64) int64 {
	switch {
	case t.q[xrRx]|t.q[xrRx+1]|t.q[xrRx+2]|t.q[xrRx+3] != 0:
		return cycle + 1
	case t.cur >= t.s1:
		return xrNever
	case t.start > cycle:
		return t.start
	}
	return cycle + 1
}

// advance moves a tile to its next stage (or completion). A round first
// executes the cycle after the one that retired its predecessor, exactly
// the task-activation and thread-launch latency of the core scheduler. A
// task runs on the same latency, issues lanes on every one of its cycles
// (its instructions are full-column vector ops) and touches no queue, so
// it is accounted here in one piece and the tile next acts on the cycle
// the task retires.
func (r *ExchangeReplay) advance(ti int, t *xrTile, cycle int64) {
	t.cur++
	if t.cur >= t.s1 {
		r.left--
		return
	}
	st := &r.stages[t.cur]
	if t.task = st.task > 0; t.task {
		r.busy[ti] += int64(st.task)
		t.start = cycle + int64(st.task)
		return
	}
	t.ntx, t.nrx = st.ntx, st.nrx
	t.txCol, t.rxCol = st.txCol, st.rxCol
	t.txRem, t.rxRem = st.txN, st.rxN
	t.open = 0
	for _, n := range st.txN {
		if n > 0 {
			t.open++
		}
	}
	for _, n := range st.rxN {
		if n > 0 {
			t.open++
		}
	}
	t.start = cycle + 1
}

// stepTile replays one core cycle and returns the tile's next wake:
// deliver arriving words to stream buffers (one word per color, only
// into a buffer with space), then run the current stage — a task
// retires; a round offers the ramp to its send threads in slot order
// (one word per cycle crosses) and shares the four lanes among its
// receive threads.
func (r *ExchangeReplay) stepTile(ti int, cycle int64) int64 {
	t := &r.tiles[ti]
	for c := 0; c < 4; c++ {
		if t.q[xrRx+c] > 0 && t.bufE[c] <= saBufElems-2 {
			t.q[xrRx+c]--
			t.bufE[c] += 2
		}
	}
	if t.cur >= t.s1 || cycle < t.start {
		return t.wakeAfter(cycle)
	}
	if t.task {
		r.advance(ti, t, cycle)
		return t.wakeAfter(cycle)
	}
	for i := 0; i < int(t.ntx); i++ {
		if q := xrRamp + t.txCol[i]; t.txRem[i] > 0 && t.q[q] < saQueueDepth {
			t.q[q]++
			t.occ |= t.srcBits[q]
			r.markHot(ti)
			if t.txRem[i]--; t.txRem[i] == 0 {
				t.open--
			}
			break
		}
	}
	lanes := int32(saLanes)
	for i := 0; i < int(t.nrx) && lanes > 0; i++ {
		c := t.rxCol[i]
		take := min(t.rxRem[i], int32(t.bufE[c]), lanes)
		if take == 0 {
			continue
		}
		t.bufE[c] -= uint8(take)
		lanes -= take
		if t.rxRem[i] -= take; t.rxRem[i] == 0 {
			t.open--
		}
	}
	if lanes < saLanes {
		// A send consumes no datapath lanes; only a cycle that stores
		// received elements counts as busy, matching the core's
		// used-lanes accounting.
		r.busy[ti]++
		r.rxLanes[ti] += int64(saLanes - lanes)
	}
	if t.open == 0 {
		r.advance(ti, t, cycle)
	}
	return t.wakeAfter(cycle)
}

func (r *ExchangeReplay) markHot(ti int) {
	if t := &r.tiles[ti]; !t.hot {
		t.hot = true
		r.hotCur = append(r.hotCur, ti)
	}
}

// fabricStep replays one router cycle and returns the words moved:
// every hot router walks its occupied route entries from its arbitration
// rotation, claiming one word per output link against pre-cycle
// occupancies; claims commit together, so a word moves at most one hop
// per cycle. A word delivered to a core wakes its tile for the next
// cycle.
func (r *ExchangeReplay) fabricStep(cycle int64) int64 {
	cur := r.hotCur
	r.hotCur = r.hotSpare[:0]
	r.moves = r.moves[:0]
	r.still = r.still[:0]
	for _, ti := range cur {
		t := &r.tiles[ti]
		t.hot = false
		if t.n == 0 {
			continue
		}
		idx := t.ri
		if t.ri++; t.ri == t.n {
			t.ri = 0
		}
		r.rr[ti]++
		if t.occ == 0 {
			continue
		}
		r.still = append(r.still, ti)
		// Rotation order: entries idx..n-1, then 0..idx-1.
		m := t.occ >> idx << idx
		rest := t.occ ^ m
		var claimed uint8
		for {
			if m == 0 {
				if rest == 0 {
					break
				}
				m, rest = rest, 0
			}
			en := &r.entries[int(t.e0)+bits.TrailingZeros16(m)]
			m &= m - 1
			if claimed&(1<<en.port) != 0 || r.tiles[en.tile].q[en.dst] == saQueueDepth {
				continue
			}
			claimed |= 1 << en.port
			r.moves = append(r.moves, xrMove{from: int32(ti), to: en.tile, src: en.src, dst: en.dst})
		}
	}
	for _, mv := range r.moves {
		s := &r.tiles[mv.from]
		if s.q[mv.src]--; s.q[mv.src] == 0 {
			s.occ &^= s.srcBits[mv.src]
		}
		d := &r.tiles[mv.to]
		d.q[mv.dst]++
		if mv.dst < xrRx {
			d.occ |= d.srcBits[mv.dst]
			r.markHot(int(mv.to))
		} else {
			r.wake[mv.to] = cycle + 1
		}
	}
	for _, ti := range r.still {
		r.markHot(ti)
	}
	r.hotSpare = cur
	return int64(len(r.moves))
}
