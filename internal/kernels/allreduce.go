package kernels

import (
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
// The measured latency is the paper's headline: about 10% more cycles
// than the fabric diameter.
type AllReduce struct {
	M *wse.Machine
	F *fabric.Fabric

	blue, green, c4a, c4b, c4c, red fabric.Color

	cx0, cx1, cy0, cy1 int

	tiles []*arTile

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

	// Row-phase fast-forward (skipRowPhase): the center-column tile
	// indices, the absolute rotation counters handed to ApplyReplay
	// (built on first use), and how many Runs jumped / stepped the row
	// phase — tests assert there is no silent fall-back.
	centerTiles          []int
	ffRR                 []int64
	rowSkips, rowStepped int
}

type arTile struct {
	x, y                 int
	val, acc             float32
	rowExpect, rowGot    int
	colExpect, colGot    int
	quadExpect, quadGot  int
	sentRow, sentCol     bool
	sentQuad, sentRed    bool
	rowDone, colDone     bool
	haveResult           bool
	result               float32
	resultCycle          int64
	isRowCtr, isColCtr   bool
	isRoot               bool
	greenTarget, quadCol fabric.Color
}

// NewAllReduce builds the reduction/broadcast routing on m's fabric using
// six colors starting at base. Call once; Run may be invoked repeatedly.
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

	// ---- Blue: row reduction toward the two central columns.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			at := fabric.Coord{X: x, Y: y}
			switch {
			case x < ar.cx0:
				ar.routeChain(at, fabric.East, ar.blue, x > 0)
			case x > ar.cx1:
				ar.routeChain(at, fabric.West, ar.blue, x < w-1)
			case x == ar.cx0 && ar.cx0 > 0:
				f.SetRoute(at, fabric.West, ar.blue, fabric.Mask(fabric.Ramp))
			}
			if x == ar.cx1 && ar.cx1 < w-1 {
				f.SetRoute(at, fabric.East, ar.blue, fabric.Mask(fabric.Ramp))
			}
		}
	}

	// ---- Green: column reduction within the central columns.
	for _, cx := range ar.centerCols() {
		for y := 0; y < h; y++ {
			at := fabric.Coord{X: cx, Y: y}
			switch {
			case y < ar.cy0:
				ar.routeChain(at, fabric.South, ar.green, y > 0)
			case y > ar.cy1:
				ar.routeChain(at, fabric.North, ar.green, y < h-1)
			case y == ar.cy0 && ar.cy0 > 0:
				f.SetRoute(at, fabric.North, ar.green, fabric.Mask(fabric.Ramp))
			}
			if y == ar.cy1 && ar.cy1 < h-1 {
				f.SetRoute(at, fabric.South, ar.green, fabric.Mask(fabric.Ramp))
			}
		}
	}

	// ---- 4:1 reduction into the root (cx0, cy0).
	root := fabric.Coord{X: ar.cx0, Y: ar.cy0}
	if ar.cx1 != ar.cx0 {
		f.SetRoute(fabric.Coord{X: ar.cx1, Y: ar.cy0}, fabric.Ramp, ar.c4a, fabric.Mask(fabric.West))
		f.SetRoute(root, fabric.East, ar.c4a, fabric.Mask(fabric.Ramp))
	}
	if ar.cy1 != ar.cy0 {
		f.SetRoute(fabric.Coord{X: ar.cx0, Y: ar.cy1}, fabric.Ramp, ar.c4b, fabric.Mask(fabric.North))
		f.SetRoute(root, fabric.South, ar.c4b, fabric.Mask(fabric.Ramp))
	}
	if ar.cx1 != ar.cx0 && ar.cy1 != ar.cy0 {
		f.SetRoute(fabric.Coord{X: ar.cx1, Y: ar.cy1}, fabric.Ramp, ar.c4c, fabric.Mask(fabric.West))
		f.SetRoute(fabric.Coord{X: ar.cx0, Y: ar.cy1}, fabric.East, ar.c4c, fabric.Mask(fabric.North))
		f.SetRoute(root, fabric.South, ar.c4c, fabric.Mask(fabric.Ramp))
	}

	// ---- Red: broadcast, reverse of the reduction tree.
	rootOuts := fabric.Mask(fabric.Ramp)
	if ar.cy0 > 0 {
		rootOuts |= fabric.Mask(fabric.North)
	}
	if ar.cy0 < h-1 {
		rootOuts |= fabric.Mask(fabric.South)
	}
	if ar.cx0 > 0 {
		rootOuts |= fabric.Mask(fabric.West) // left half of the root row
	}
	if ar.cx1 != ar.cx0 || ar.cx1 < w-1 {
		// Even width: hand off to column cx1. Odd width: the root's own
		// row continues eastward directly.
		rootOuts |= fabric.Mask(fabric.East)
	}
	f.SetRoute(root, fabric.Ramp, ar.red, rootOuts)
	for _, cx := range ar.centerCols() {
		for y := 0; y < h; y++ {
			at := fabric.Coord{X: cx, Y: y}
			isHandOff := cx == ar.cx1 && ar.cx1 != ar.cx0 && y == ar.cy0
			if y == ar.cy0 && !isHandOff {
				continue // the root itself
			}
			var in fabric.Port
			var cont fabric.Port
			contOK := false
			if isHandOff {
				in = fabric.West
			} else if y < ar.cy0 {
				in = fabric.South // word moving north arrives on the south port
				if y > 0 {
					cont, contOK = fabric.North, true
				}
			} else {
				in = fabric.North
				if y < h-1 {
					cont, contOK = fabric.South, true
				}
			}
			outs := fabric.Mask(fabric.Ramp)
			if contOK {
				outs |= fabric.Mask(cont)
			}
			if isHandOff {
				if ar.cy0 > 0 {
					outs |= fabric.Mask(fabric.North)
				}
				if ar.cy0 < h-1 {
					outs |= fabric.Mask(fabric.South)
				}
			}
			// Row broadcast away from the central columns.
			if cx == ar.cx0 && cx > 0 {
				outs |= fabric.Mask(fabric.West)
			}
			if cx == ar.cx1 && cx < w-1 {
				outs |= fabric.Mask(fabric.East)
			}
			f.SetRoute(at, in, ar.red, outs)
		}
	}
	// Row tails beyond the central columns.
	for y := 0; y < h; y++ {
		for x := 0; x < ar.cx0; x++ {
			outs := fabric.Mask(fabric.Ramp)
			if x > 0 {
				outs |= fabric.Mask(fabric.West)
			}
			f.SetRoute(fabric.Coord{X: x, Y: y}, fabric.East, ar.red, outs)
		}
		for x := ar.cx1 + 1; x < w; x++ {
			outs := fabric.Mask(fabric.Ramp)
			if x < w-1 {
				outs |= fabric.Mask(fabric.East)
			}
			f.SetRoute(fabric.Coord{X: x, Y: y}, fabric.West, ar.red, outs)
		}
	}

	// ---- Per-tile actor state.
	ar.tiles = make([]*arTile, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			t := &arTile{x: x, y: y}
			t.isRowCtr = x == ar.cx0 || x == ar.cx1
			if t.isRowCtr {
				if x == ar.cx0 {
					t.rowExpect = ar.cx0 // tiles strictly left
				} else {
					t.rowExpect = w - 1 - ar.cx1
				}
				if ar.cx0 == ar.cx1 {
					t.rowExpect = ar.cx0 + (w - 1 - ar.cx1) // single column takes both sides
				}
				t.isColCtr = y == ar.cy0 || y == ar.cy1
				if t.isColCtr {
					if y == ar.cy0 {
						t.colExpect = ar.cy0
					} else {
						t.colExpect = h - 1 - ar.cy1
					}
					if ar.cy0 == ar.cy1 {
						t.colExpect = ar.cy0 + (h - 1 - ar.cy1)
					}
				}
			}
			t.isRoot = x == ar.cx0 && y == ar.cy0
			if t.isRoot {
				if ar.cx1 != ar.cx0 {
					t.quadExpect++
				}
				if ar.cy1 != ar.cy0 {
					t.quadExpect++
				}
				if ar.cx1 != ar.cx0 && ar.cy1 != ar.cy0 {
					t.quadExpect++
				}
			}
			// Which color this center uses toward the root.
			switch {
			case x == ar.cx1 && y == ar.cy0 && ar.cx1 != ar.cx0:
				t.quadCol = ar.c4a
			case x == ar.cx0 && y == ar.cy1 && ar.cy1 != ar.cy0:
				t.quadCol = ar.c4b
			case x == ar.cx1 && y == ar.cy1 && ar.cx1 != ar.cx0 && ar.cy1 != ar.cy0:
				t.quadCol = ar.c4c
			}
			ar.tiles[y*w+x] = t
		}
	}
	ar.pending = make([][]int32, len(f.ShardRanges()))
	ar.queued = make([]bool, w*h)
	ar.perTile = make([]float32, w*h)
	for y := 0; y < h; y++ {
		for _, cx := range ar.centerCols() {
			ar.centerTiles = append(ar.centerTiles, y*w+cx)
		}
	}
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

func (ar *AllReduce) centerCols() []int {
	if ar.cx0 == ar.cx1 {
		return []int{ar.cx0}
	}
	return []int{ar.cx0, ar.cx1}
}

// routeChain configures a pass-through route at `at`: inject own (Ramp)
// and, when hasUpstream, forward the neighbour chain arriving from the
// opposite direction.
func (ar *AllReduce) routeChain(at fabric.Coord, out fabric.Port, c fabric.Color, hasUpstream bool) {
	ar.F.SetRoute(at, fabric.Ramp, c, fabric.Mask(out))
	if hasUpstream {
		ar.F.SetRoute(at, out.Opposite(), c, fabric.Mask(out))
	}
}

// Result carries the outcome of one AllReduce. PerTile is a buffer the
// AllReduce owns: valid until its next Run (or Result), copy it to keep it.
type AllReduceResult struct {
	Sum       float32
	Cycles    int64 // until the last core received the result
	PerTile   []float32
	RootValue float32
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
// Under wse.EngineFastForward an eligible reduction does not step its
// row phase at all (see skipRowPhase); the loop then starts at the Tick
// that ends it. Everything after — every phase with arbitration
// contention — is cycle-simulated under every engine.
func (ar *AllReduce) Run(values []float32, maxCycles int64) (AllReduceResult, error) {
	if err := ar.Begin(values); err != nil {
		return AllReduceResult{}, err
	}
	for cyc := ar.skipRowPhase(maxCycles); cyc < maxCycles; cyc++ {
		if ar.Tick() {
			return ar.Result(), nil
		}
		ar.F.Step()
	}
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
	for i, t := range ar.tiles {
		t.val = values[i]
		t.acc = values[i]
		t.rowGot, t.colGot, t.quadGot = 0, 0, 0
		t.sentRow, t.sentCol, t.sentQuad, t.sentRed = false, false, false, false
		t.rowDone = !t.isRowCtr || t.rowExpect == 0
		t.colDone = false
		t.haveResult = false
		t.result = 0
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
			t := ar.tiles[ti]
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
	for i, t := range ar.tiles {
		ar.perTile[i] = t.result
	}
	return AllReduceResult{
		Sum:     ar.tiles[ar.cy0*ar.F.W+ar.cx0].result,
		Cycles:  ar.F.Cycle() - ar.start,
		PerTile: ar.perTile,
	}
}

// skipRowPhase is the AllReduce's analytic path: called right after
// Begin, it jumps an eligible reduction to the state cycle stepping
// reaches just before the Tick that ends the row phase, and returns how
// many Tick/Step rounds of Run's loop that stood in for (0: not
// eligible, nothing touched).
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
//     nearest first, as float32 adds in that order;
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
// every later phase (column on odd H, the 4:1 quad, the broadcast) it
// is cycle-simulated. The gate also rejects any start the derivation
// does not cover. Bit- and cycle-identity with sequential stepping is
// pinned by TestAllReduceRowSkipExact.
func (ar *AllReduce) skipRowPhase(maxCycles int64) int64 {
	if !ar.rowSkipEligible(maxCycles) {
		ar.rowStepped++
		return 0
	}
	ar.rowSkips++
	f := ar.F
	w, h, l := f.W, f.H, ar.cx0

	if ar.ffRR == nil {
		ar.ffRR = make([]int64, w*h)
	}
	rr := ar.ffRR
	for y := 0; y < h; y++ {
		row := ar.tiles[y*w : (y+1)*w]
		left, right := row[ar.cx0], row[ar.cx1]
		for d := 1; d <= l; d++ {
			a, b := row[ar.cx0-d], row[ar.cx1+d]
			left.acc += a.val
			right.acc += b.val
			a.sentRow, b.sentRow = true, true
			visits := int64(l - d + 2)
			rr[y*w+ar.cx0-d] = f.RR(y*w+ar.cx0-d) + visits
			rr[y*w+ar.cx1+d] = f.RR(y*w+ar.cx1+d) + visits
		}
		left.rowGot, right.rowGot = left.rowExpect, right.rowExpect
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
	// row phase and sends them into the column or quad phase.
	ar.clearPending()
	for _, ti := range ar.centerTiles {
		ar.wakeTile(ti)
	}
	return int64(l) + 1
}

// rowSkipEligible is skipRowPhase's gate: the fast-forward engine, an
// even fabric width with a row phase to skip, the default queue depths
// the derivation was checked against, a cycle budget the jump stays
// inside, no word in any router queue, and none left in a receive
// buffer this reduction would pop before the row phase ends.
func (ar *AllReduce) rowSkipEligible(maxCycles int64) bool {
	if !ar.M.FastForwardEnabled() || ar.F.W < 4 || ar.F.W%2 != 0 || !ar.M.Cfg.DefaultQueueDepths() ||
		int64(ar.cx0)+1 >= maxCycles || !ar.F.Quiescent() {
		return false
	}
	for _, t := range ar.tiles {
		at := fabric.Coord{X: t.x, Y: t.y}
		if ar.F.RxLen(at, ar.red) > 0 {
			return false
		}
		if t.isRowCtr {
			for c := ar.blue; c < ar.red; c++ {
				if ar.F.RxLen(at, c) > 0 {
					return false
				}
			}
		}
	}
	return true
}

// tileActionable reports whether the tile can make progress without a
// new word arriving: a send to attempt (or retry under backpressure),
// or words already waiting at its ramp for a phase it is in. Everything
// else parks; the rx-delivery wake covers future arrivals.
func (ar *AllReduce) tileActionable(t *arTile) bool {
	at := fabric.Coord{X: t.x, Y: t.y}
	if !t.isRowCtr {
		if !t.sentRow {
			return true
		}
	} else {
		if t.rowGot < t.rowExpect && ar.F.RxLen(at, ar.blue) > 0 {
			return true
		}
		if t.rowDone && !t.isColCtr && !t.sentCol {
			return true
		}
		if t.isColCtr {
			if t.rowDone && t.colGot < t.colExpect && ar.F.RxLen(at, ar.green) > 0 {
				return true
			}
			if t.colDone && !t.isRoot && !t.sentQuad {
				return true
			}
			if t.isRoot {
				if t.colDone && t.quadGot < t.quadExpect &&
					(ar.F.RxLen(at, ar.c4a) > 0 || ar.F.RxLen(at, ar.c4b) > 0 || ar.F.RxLen(at, ar.c4c) > 0) {
					return true
				}
				if t.colDone && t.quadGot == t.quadExpect && !t.sentRed {
					return true
				}
			}
		}
	}
	if !t.haveResult && ar.F.RxLen(at, ar.red) > 0 {
		return true
	}
	return false
}

// stepTile runs one cycle of a tile's reduction state machine. A tile
// absorbs at most two words per cycle (the core "can add two 32-bit
// quantities per cycle but can receive only one from the fabric" — the
// fabric ramp already limits delivery to one word per cycle, so allowing
// two pops per cycle only drains backlog).
func (ar *AllReduce) stepTile(t *arTile) {
	at := fabric.Coord{X: t.x, Y: t.y}
	pops := 0

	// Row phase: non-center tiles send once; centers accumulate.
	if !t.isRowCtr {
		if !t.sentRow {
			if ar.F.Send(at, fabric.WordF32(ar.blue, t.val)) {
				t.sentRow = true
			}
		}
	} else {
		for pops < 2 && t.rowGot < t.rowExpect {
			w, ok := ar.F.Recv(at, ar.blue)
			if !ok {
				break
			}
			t.acc += w.F32()
			t.rowGot++
			pops++
		}
		if t.rowGot == t.rowExpect {
			t.rowDone = true
		}
		// Column phase.
		if t.rowDone && !t.isColCtr && !t.sentCol {
			if ar.F.Send(at, fabric.WordF32(ar.green, t.acc)) {
				t.sentCol = true
			}
		}
		if t.isColCtr {
			for pops < 2 && t.colGot < t.colExpect && t.rowDone {
				w, ok := ar.F.Recv(at, ar.green)
				if !ok {
					break
				}
				t.acc += w.F32()
				t.colGot++
				pops++
			}
			if t.rowDone && t.colGot == t.colExpect {
				t.colDone = true
			}
			_ = pops
			// Quad phase: the three non-root centers forward to the root.
			if t.colDone && !t.isRoot && !t.sentQuad {
				if ar.F.Send(at, fabric.WordF32(t.quadCol, t.acc)) {
					t.sentQuad = true
				}
			}
			if t.isRoot && t.colDone {
				for pops < 2 && t.quadGot < t.quadExpect {
					var w fabric.Word
					var ok bool
					for _, c := range []fabric.Color{ar.c4a, ar.c4b, ar.c4c} {
						if w, ok = ar.F.Recv(at, c); ok {
							break
						}
					}
					if !ok {
						break
					}
					t.acc += w.F32()
					t.quadGot++
					pops++
				}
				if t.quadGot == t.quadExpect && !t.sentRed {
					if ar.F.Send(at, fabric.WordF32(ar.red, t.acc)) {
						t.sentRed = true
					}
				}
			}
		}
	}

	// Everyone: wait for the broadcast result.
	if !t.haveResult {
		if w, ok := ar.F.Recv(at, ar.red); ok {
			t.result = w.F32()
			t.haveResult = true
			t.resultCycle = ar.F.Cycle()
		}
	}
}

// ReferenceSum computes the float64 sum, for accuracy checks.
func ReferenceSum(values []float32) float64 {
	var s float64
	for _, v := range values {
		s += float64(v)
	}
	return s
}

// MaxAbs returns max |v| over values; used for error bounds.
func MaxAbs(values []float32) float64 {
	m := 0.0
	for _, v := range values {
		m = math.Max(m, math.Abs(float64(v)))
	}
	return m
}
