package kernels

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/fabric"
	"repro/internal/wse"
)

// AllReduce is the wafer-wide scalar reduction of Figure 6. Every core
// contributes one float32; the sum is formed by reducing in parallel
// along fabric rows into the two central columns, then along those
// columns into the four central cores, then 4:1 into a single root, and
// broadcast back over the reverse tree. Reduction arithmetic is float32
// ("we do the AllReduce at 32-bit precision"), and a core can absorb at
// most one fabric word per cycle, which is why the paper uses a *pair*
// of central rows/columns — each center receives a single directional
// stream at full link rate.
//
// The tree is said once, as a schedule NewAllReduce lowers. Each
// reduction phase is a set of lines — tiles that inject their partial
// and forward upstream words toward one sink — and the broadcast is the
// parent relation (parent). Lines and parents are the only author of the
// routes, of each sink's receive stages and of what each tile sends;
// stepTile walks the stages.
//
// The measured latency is the paper's headline: about 10% more cycles
// than the fabric diameter.
type AllReduce struct {
	M *wse.Machine
	F *fabric.Fabric

	blue, green, c4a, c4b, c4c, red fabric.Color

	cx0, cx1, cy0, cy1 int

	tiles []arTile

	// Event-driven actor scheduling: tiles with actionable work sit on a
	// per-engine-shard pending list and park otherwise (e.g. while
	// waiting for reduction operands or the broadcast); the fabric's
	// rx-delivery wake re-lists them when words land at their ramp. This
	// is what makes the paper-scale 602×595 reduction cheap to simulate:
	// during the long serialization phases almost every tile is parked.
	pending   [][]int32
	queued    []bool
	remaining int
	start     int64 // fabric cycle at Begin, for Result's latency

	perTile []float32 // Result's PerTile, reused by every reduction

	root int // the tile that sends on red

	// Fast-forward (ffGate, skipRowPhase, skipBroadcast): the center-column
	// tile indices, each tile's broadcast-tree depth, the deepest tiles and
	// the absolute rotation counters handed to ApplyReplay (all built on
	// first use); and holdRoot, set by Run, which withholds the root's red
	// send for skipBroadcast.
	centerTiles []int
	depth       []int32
	deepest     []int
	ffRR        []int64
	holdRoot    bool
}

// arTile is one core's actor: its partial, the receive stages it sinks
// (one per phase, in phase order), the color it sends its partial on
// once they are complete (red at the root) and its handle on that ramp
// queue, and the broadcast copy.
type arTile struct {
	at         fabric.Coord
	val, acc   float32
	stages     []arStage
	stage      int // first incomplete stage
	out        fabric.Color
	tx         fabric.TxQueue
	sent       bool
	haveResult bool
	result     float32
}

// arStage is one phase's receive at a sink: need words, each popped
// from the first color in c0…c1 holding one.
type arStage struct {
	c0, c1    fabric.Color
	need, got int
}

// NewAllReduce builds the reduction/broadcast routing on m's fabric using
// six colors starting at base. Call once; Run may be invoked repeatedly.
//
// Routes go in phase by phase — blue, green, quad, red — because a
// router arbitrates its entries in the order they were set.
func NewAllReduce(m *wse.Machine, base fabric.Color) (*AllReduce, error) {
	f := m.Fab
	if int(base)+6 > fabric.MaxColors {
		return nil, fmt.Errorf("kernels: allreduce needs 6 colors starting at %d", base)
	}
	ar := &AllReduce{
		M: m, F: f,
		blue: base, green: base + 1, c4a: base + 2, c4b: base + 3, c4c: base + 4, red: base + 5,
	}
	w, h := f.W, f.H
	ar.cx0, ar.cx1 = (w-1)/2, w/2
	ar.cy0, ar.cy1 = (h-1)/2, h/2
	ar.tiles = make([]arTile, w*h)
	for i := range ar.tiles {
		ar.tiles[i] = arTile{at: f.CoordOf(i), out: ar.red}
	}
	xy := func(x, y int) fabric.Coord { return fabric.Coord{X: x, Y: y} }

	// Blue: each row half into its central column (on an odd width both
	// halves into the one centre, west first).
	for y := 0; y < h; y++ {
		ar.line(ar.blue, 0, xy(0, y), xy(ar.cx0, y))
		ar.line(ar.blue, 0, xy(w-1, y), xy(ar.cx1, y))
	}
	// Green: each central column's halves into the central rows.
	for x := ar.cx0; x <= ar.cx1; x++ {
		ar.line(ar.green, 0, xy(x, 0), xy(x, ar.cy0))
		ar.line(ar.green, 0, xy(x, h-1), xy(x, ar.cy1))
	}
	// Quad: the other three central cores 4:1 into the root (cx0, cy0);
	// the diagonal turns at (cx0, cy1), which relays it.
	root := xy(ar.cx0, ar.cy0)
	ar.line(ar.c4a, 0, xy(ar.cx1, ar.cy0), root)
	ar.line(ar.c4b, 0, xy(ar.cx0, ar.cy1), root)
	ar.line(ar.c4c, 1, xy(ar.cx1, ar.cy1), xy(ar.cx0, ar.cy1), root)

	// Red: the broadcast enters each tile from its parent and leaves to
	// its core and to every neighbour that names this tile as parent.
	for i := range ar.tiles {
		at := ar.tiles[i].at
		outs := fabric.Mask(fabric.Ramp)
		for p := fabric.North; p < fabric.Ramp; p++ {
			dx, dy := p.Delta()
			if nb := xy(at.X+dx, at.Y+dy); f.In(nb) && ar.parent(nb) == p.Opposite() {
				outs |= fabric.Mask(p)
			}
		}
		f.SetRoute(at, ar.parent(at), ar.red, outs)
	}
	ar.root = f.Index(root)
	for i := range ar.tiles {
		ar.tiles[i].tx = f.TxQueueOf(i, ar.tiles[i].out)
	}

	ar.pending = make([][]int32, len(f.ShardRanges()))
	ar.queued = make([]bool, w*h)
	ar.perTile = make([]float32, w*h)
	// Any word landing at a tile's ramp on one of the six AllReduce
	// colors (reduction operand, quad word, broadcast result) re-lists
	// the tile; deliveries for other subsystems sharing the fabric are
	// ignored. The callback runs on the shard that owns the tile, so the
	// per-shard append is race-free.
	f.OnRxDelivery(func(ti int, c fabric.Color) {
		if c >= ar.blue && c <= ar.red {
			ar.wakeTile(ti)
		}
	})
	return ar, nil
}

// line lowers one reduction line on color c. The path runs through the
// waypoints one hop at a time, farthest tile first, and ends at the
// sink; the last relays tiles before the sink only forward, every other
// tile injects its partial, and every tile after the first forwards
// what arrives from upstream. A router gets its Ramp→out entry before
// its forward entry. The sink pops the injected words in one receive
// stage per phase: an odd centre's two lines share their color, and the
// root's quad colors are one phase, popped c4a→c4b→c4c.
func (ar *AllReduce) line(c fabric.Color, relays int, waypoints ...fabric.Coord) {
	path := []fabric.Coord{waypoints[0]}
	for _, to := range waypoints[1:] {
		for at := path[len(path)-1]; at != to; {
			at = fabric.Coord{X: at.X + cmp.Compare(to.X, at.X), Y: at.Y + cmp.Compare(to.Y, at.Y)}
			path = append(path, at)
		}
	}
	n := len(path) - 1 - relays
	if n <= 0 {
		return
	}
	for i, at := range path {
		out := fabric.Ramp
		if i+1 < len(path) {
			out = portToward(path[i+1].X-at.X, path[i+1].Y-at.Y)
		}
		if i < n {
			ar.F.SetRoute(at, fabric.Ramp, c, fabric.Mask(out))
			ar.tiles[ar.F.Index(at)].out = c
		}
		if i > 0 {
			ar.F.SetRoute(at, portToward(path[i-1].X-at.X, path[i-1].Y-at.Y), c, fabric.Mask(out))
		}
	}
	sink := &ar.tiles[ar.F.Index(path[len(path)-1])]
	k := len(sink.stages) - 1
	if k < 0 || min(sink.stages[k].c1, ar.c4a) != min(c, ar.c4a) { // min(·, c4a): the phase
		sink.stages = append(sink.stages, arStage{c0: c})
		k++
	}
	sink.stages[k].c1 = c
	sink.stages[k].need += n
}

// parent is the port the broadcast arrives on at tile at, the reduction
// tree walked back: along the row from a central column, along a central
// column from row cy0, at (cx1, cy0) from the root, and at the root from
// its own core (Ramp).
func (ar *AllReduce) parent(at fabric.Coord) fabric.Port {
	switch {
	case at.X < ar.cx0:
		return fabric.East
	case at.X > ar.cx1:
		return fabric.West
	case at.Y < ar.cy0:
		return fabric.South
	case at.Y > ar.cy0:
		return fabric.North
	case at.X > ar.cx0:
		return fabric.West
	}
	return fabric.Ramp
}

// wakeTile puts a tile on its shard's pending list (idempotent).
func (ar *AllReduce) wakeTile(ti int) {
	if !ar.queued[ti] {
		ar.queued[ti] = true
		s := ar.F.ShardOf(ti)
		ar.pending[s] = append(ar.pending[s], int32(ti))
	}
}

// clearPending empties every shard's pending list.
func (ar *AllReduce) clearPending() {
	for s := range ar.pending {
		ar.pending[s] = ar.pending[s][:0]
	}
	clear(ar.queued)
}

// Result carries the outcome of one AllReduce. PerTile is a buffer the
// AllReduce owns: valid until its next Run (or Result), copy it to keep it.
type AllReduceResult struct {
	Sum     float32
	Cycles  int64 // until the last core received the result
	PerTile []float32
}

// Run performs one AllReduce over values (one float32 per tile, fabric
// row-major). It returns the broadcast sum and the cycle count from start
// to the last delivery.
//
// Each cycle only pending tiles step; a tile parks when its next move
// waits on a word that has not arrived and is re-listed by the fabric's
// rx-delivery wake. Tile state is tile-local and each tile touches only
// its own ramp, so the stepping order — and therefore the engine choice
// — does not change the simulated state.
//
// Under wse.EngineFastForward a reduction that starts as ffGate requires
// steps neither of its contention-free phases: an even-width row phase
// is jumped before the loop (skipRowPhase), which then starts at the
// Tick that ends it, and the broadcast is jumped in place of the root's
// send (skipBroadcast), ending the Run. What is left — the odd-width row
// phase, the odd-height column phase and the 4:1 quad, whose arrival
// order depends on arbitration — is cycle-simulated under every engine.
// Each Run records both phases in the machine's record
// (wse.Machine.CountPhase) once, jumped or stepped.
func (ar *AllReduce) Run(values []float32, maxCycles int64) (AllReduceResult, error) {
	if err := ar.Begin(values); err != nil {
		return AllReduceResult{}, err
	}
	ff := ar.ffGate()
	ar.holdRoot = ff
	jumped := false // whether the broadcast jumped, recorded on return
	defer func() { ar.M.CountPhase(wse.PhaseBroadcast, jumped) }()
	root := &ar.tiles[ar.root]
	for cyc := ar.skipRowPhase(ff, maxCycles); cyc < maxCycles; cyc++ {
		if ar.Tick() {
			return ar.Result(), nil
		}
		if ar.holdRoot && root.stage == len(root.stages) {
			ar.holdRoot = false
			if jumped = ar.skipBroadcast(maxCycles - cyc); jumped {
				return ar.Result(), nil
			}
			root.sent = root.tx.Send(math.Float32bits(root.acc))
		}
		ar.F.Step()
	}
	ar.holdRoot = false
	return AllReduceResult{}, fmt.Errorf("kernels: allreduce did not finish in %d cycles", maxCycles)
}

// Begin resets the host actors for a new reduction of values, without
// stepping the fabric. Run is Begin followed by a Tick/Step loop; the
// difftest lockstep harness drives the same loop with a fingerprint
// comparison between cycles.
func (ar *AllReduce) Begin(values []float32) error {
	w, h := ar.F.W, ar.F.H
	if len(values) != w*h {
		return fmt.Errorf("kernels: allreduce needs %d values, got %d", w*h, len(values))
	}
	for i := range ar.tiles {
		t := &ar.tiles[i]
		t.val, t.acc = values[i], values[i]
		t.stage, t.sent, t.haveResult, t.result = 0, false, false, 0
		for k := range t.stages {
			t.stages[k].got = 0
		}
	}
	// Every tile has an injection to attempt on the first cycle.
	ar.clearPending()
	for i := range ar.tiles {
		ar.wakeTile(i)
	}
	ar.remaining = len(ar.tiles)
	ar.start = ar.F.Cycle()
	return nil
}

// Tick runs every actionable host actor once for the current cycle and
// reports whether all tiles hold the broadcast result. The caller steps
// the fabric between Ticks (Run does; so does the difftest harness, via
// the owning machine so cycle counts stay aligned with core stepping).
func (ar *AllReduce) Tick() bool {
	for s := range ar.pending {
		list := ar.pending[s]
		keep := list[:0]
		for _, ti := range list {
			t := &ar.tiles[ti]
			had := t.haveResult
			ar.stepTile(t)
			if t.haveResult && !had {
				ar.remaining--
			}
			if ar.tileActionable(t) {
				keep = append(keep, ti)
			} else {
				ar.queued[ti] = false
			}
		}
		ar.pending[s] = keep
	}
	return ar.remaining == 0
}

// Result assembles the finished reduction (valid once Tick returned
// true): the root sum, latency in cycles since Begin, and every tile's
// broadcast copy.
func (ar *AllReduce) Result() AllReduceResult {
	for i := range ar.tiles {
		ar.perTile[i] = ar.tiles[i].result
	}
	return AllReduceResult{
		Sum:     ar.tiles[ar.root].result,
		Cycles:  ar.F.Cycle() - ar.start,
		PerTile: ar.perTile,
	}
}

// ffGate is the fast-forward gate skipRowPhase and skipBroadcast share,
// evaluated once per Run, right after Begin: the default queue depths
// the derivations were checked against, on a machine Settled on the six
// AllReduce colors — no word in any router queue and none left in a
// receive buffer this reduction pops. A reduction that starts this way
// has the fabric to itself: when the root completes, every partial has
// been injected, delivered and popped, so the red word is the only one
// the broadcast moves. (Run steps the fabric alone, so the jumps would
// be exact with cores busy too; Settled's core clauses only keep every
// jump's precondition one statement.)
func (ar *AllReduce) ffGate() bool {
	return ar.M.Cfg.DefaultQueueDepths() && ar.M.Settled(ar.blue, ar.green, ar.c4a, ar.c4b, ar.c4c, ar.red)
}

// rrBuf is the rotation-counter vector both jumps hand to ApplyReplay.
func (ar *AllReduce) rrBuf() []int64 {
	if ar.ffRR == nil {
		ar.ffRR = make([]int64, len(ar.tiles))
	}
	return ar.ffRR
}

// skipRowPhase is the AllReduce's analytic row phase: called right after
// Begin, it jumps a reduction that passed ffGate to the state cycle
// stepping reaches just before the Tick that ends the row phase, and
// returns how many Tick/Step rounds of Run's loop that stood in for (0:
// stepped, nothing touched).
//
// On an even-width fabric the row phase is a shift register. Every
// non-center tile injects its word at Tick 0, the words of a row
// half march toward their center column one hop per cycle, and each
// router holds at most one blue word at a time — its own on cycle 1,
// then its upstream neighbours' in turn — so no output is ever
// contended, no queue ever fills, and nothing depends on a rotation
// counter. With L = cx0 tiles on each side, the word from distance d
// lands in the center tile's receive buffer on cycle d+1 and is
// absorbed by Tick d+1; the last one on cycle L+1. Hence, L+1 cycles
// after Begin:
//
//   - each center tile holds its own value plus its side's values added
//     nearest first, as float32 adds in that order, and its row stage
//     has all its words — the Tick the loop resumes with moves it on to
//     its next stage, as it would after stepping;
//   - the word from distance d moved d+1 times (d hops and the ramp
//     delivery): H rows × 2 sides × (L(L+1)/2 + L) moves in all;
//   - the router at distance d ≥ 1 was visited L−d+2 times (its own
//     word, the L−d words from further out, and one empty visit that
//     cools it, no later than cycle L+1), a center router L times (the
//     words, on cycles 2…L+1) plus one empty visit on cycle 1 if it was
//     hot at Begin — non-center routers are hot on cycle 1 either way;
//   - exactly the center routers are hot; no word is left in any queue.
//
// An odd width has a single center column fed from both sides, whose
// ramp arbitration makes the arrival order rotation-dependent; like
// the column phase on an odd height and the 4:1 quad it is
// cycle-simulated, and so is a row phase that would not end inside the
// cycle budget. Bit- and cycle-identity with sequential stepping is
// pinned by TestAllReduceRowSkipExact.
func (ar *AllReduce) skipRowPhase(ff bool, maxCycles int64) int64 {
	f := ar.F
	w, h, l := f.W, f.H, ar.cx0
	jump := ff && w >= 4 && w%2 == 0 && int64(l)+1 < maxCycles
	ar.M.CountPhase(wse.PhaseRow, jump)
	if !jump {
		return 0
	}
	if ar.centerTiles == nil {
		for y := 0; y < h; y++ {
			ar.centerTiles = append(ar.centerTiles, y*w+ar.cx0, y*w+ar.cx1)
		}
	}
	rr := ar.rrBuf()
	for y := 0; y < h; y++ {
		row := ar.tiles[y*w : (y+1)*w]
		left, right := &row[ar.cx0], &row[ar.cx1]
		for d := 1; d <= l; d++ {
			a, b := &row[ar.cx0-d], &row[ar.cx1+d]
			left.acc += a.val
			right.acc += b.val
			a.sent, b.sent = true, true
			visits := int64(l - d + 2)
			rr[y*w+ar.cx0-d] = f.RR(y*w+ar.cx0-d) + visits
			rr[y*w+ar.cx1+d] = f.RR(y*w+ar.cx1+d) + visits
		}
		left.stages[0].got, right.stages[0].got = left.stages[0].need, right.stages[0].need
		rr[y*w+ar.cx0] = f.RR(y*w+ar.cx0) + int64(l)
		rr[y*w+ar.cx1] = f.RR(y*w+ar.cx1) + int64(l)
	}
	for _, ti := range f.HotTiles() {
		if x := ti % w; x == ar.cx0 || x == ar.cx1 {
			rr[ti]++
		}
	}
	f.ApplyReplay(int64(l)+1, int64(h)*2*int64(l*(l+1)/2+l), rr, ar.centerTiles)

	// Only the center tiles, woken by their last blue word, have
	// anything to do at the Tick the loop resumes with: it ends their
	// row stage and sends them into the column or quad stage.
	ar.clearPending()
	for _, ti := range ar.centerTiles {
		ar.wakeTile(ti)
	}
	return int64(l) + 1
}

// skipBroadcast is the AllReduce's analytic broadcast: Run calls it, on
// a reduction that passed ffGate, at the Tick where the root has
// completed its last stage and would send on red, with the Tick/Step
// rounds left in the budget. It jumps to the state cycle stepping
// reaches at the Tick that ends the reduction and reports true, or
// reports false, touching nothing, when that Tick lies beyond the
// budget; Run then makes the root's send and steps.
//
// The broadcast is the parent tree with one word in flight: the fabric
// holds nothing else (ffGate), every router on the word's path has
// nothing else to move and every destination queue is empty, so no
// output is ever contended and no rotation counter decides anything.
// With the root at depth 0 (its ramp queue) and D the greatest depth
// (broadcastTree), the router at depth d forwards the word to its core
// and children on cycle d+1, and its core takes it at Tick d+1. Hence,
// D+1 cycles after the send:
//
//   - every tile holds the root's float32 sum;
//   - each router moved one word: W·H moves;
//   - the router at depth d was visited on cycle d+1 (the word) and, if
//     d < D, on cycle d+2 (empty, which cools it), and on no other
//     cycle: no router but the root's is hot at the send, because the
//     fabric is quiescent, so the last cycle's only moves were
//     deliveries to cores, and the root's last operand is the only
//     delivery that cycle can have made — any other sink receiving then
//     would not yet have sent the partial the root needs;
//   - exactly the routers at depth D are hot; no word is left anywhere.
//
// Bit- and cycle-identity with sequential stepping is pinned by
// TestAllReduceBroadcastSkipExact.
func (ar *AllReduce) skipBroadcast(budget int64) bool {
	if ar.depth == nil {
		ar.broadcastTree()
	}
	f := ar.F
	d := ar.depth[ar.deepest[0]]
	if int64(d)+1 >= budget {
		return false
	}
	rr := ar.rrBuf()
	for ti, k := range ar.depth {
		rr[ti] = f.RR(ti) + 1
		if k < d {
			rr[ti]++
		}
	}
	f.ApplyReplay(int64(d)+1, int64(len(ar.tiles)), rr, ar.deepest)

	sum := ar.tiles[ar.root].acc
	for i := range ar.tiles {
		ar.tiles[i].result, ar.tiles[i].haveResult = sum, true
	}
	ar.tiles[ar.root].sent = true
	ar.remaining = 0
	return true
}

// broadcastTree records every tile's depth in the broadcast tree, level
// by level from the root along the red routes NewAllReduce installed
// from parent — a tile's out-mask, Ramp aside, names its children — and
// keeps the last level as the deepest tiles.
func (ar *AllReduce) broadcastTree() {
	f := ar.F
	ar.depth = make([]int32, len(ar.tiles))
	for level := []int{ar.root}; len(level) > 0; {
		ar.deepest = level
		var next []int
		for _, ti := range level {
			at := ar.tiles[ti].at
			outs := f.Route(at, ar.parent(at), ar.red)
			for p := fabric.North; p < fabric.Ramp; p++ {
				if outs.Has(p) {
					dx, dy := p.Delta()
					c := f.Index(fabric.Coord{X: at.X + dx, Y: at.Y + dy})
					ar.depth[c] = ar.depth[ti] + 1
					next = append(next, c)
				}
			}
		}
		level = next
	}
}

// tileActionable reports whether the tile can make progress without a
// new word arriving: a word already waiting for its current stage, its
// send to attempt (or retry under backpressure) once every stage is
// complete, or the broadcast waiting at its ramp. Everything else parks;
// the rx-delivery wake covers future arrivals.
func (ar *AllReduce) tileActionable(t *arTile) bool {
	if t.stage < len(t.stages) {
		s := &t.stages[t.stage]
		for c := s.c0; c <= s.c1; c++ {
			if ar.F.RxLen(t.at, c) > 0 {
				return true
			}
		}
	} else if !t.sent {
		return true
	}
	return !t.haveResult && ar.F.RxLen(t.at, ar.red) > 0
}

// stepTile runs one cycle of a tile's actor: pop into the current stage,
// moving on to the next in the cycle one completes; send the partial in
// the cycle the last completes (the root leaves its send to Run while
// holdRoot is set); take the broadcast. A tile absorbs at
// most two words per cycle across its stages (the core "can add two
// 32-bit quantities per cycle but can receive only one from the fabric"
// — the fabric ramp already limits delivery to one word per cycle, so
// allowing two pops per cycle only drains backlog).
func (ar *AllReduce) stepTile(t *arTile) {
	pops := 0
	for ; t.stage < len(t.stages); t.stage++ {
		s := &t.stages[t.stage]
		for pops < 2 && s.got < s.need {
			var w fabric.Word
			ok := false
			for c := s.c0; c <= s.c1 && !ok; c++ {
				w, ok = ar.F.Recv(t.at, c)
			}
			if !ok {
				break
			}
			t.acc += w.F32()
			s.got++
			pops++
		}
		if s.got < s.need {
			break
		}
	}
	if t.stage == len(t.stages) && !t.sent && !(ar.holdRoot && t.out == ar.red) {
		t.sent = t.tx.Send(math.Float32bits(t.acc))
	}
	if !t.haveResult {
		if w, ok := ar.F.Recv(t.at, ar.red); ok {
			t.result, t.haveResult = w.F32(), true
		}
	}
}

// allReduceTol is the AllReduce's float32 error model, the bound on how
// far its tree-order sum of values may sit from the exact sum:
// n·maxᵢ|vᵢ|·1.2e-7·(1+log₂(n+1)).
func allReduceTol(values []float32) float64 {
	m := 0.0
	for _, v := range values {
		m = math.Max(m, math.Abs(float64(v)))
	}
	n := float64(len(values))
	return n * m * 1.2e-7 * (1 + math.Log2(n+1))
}
