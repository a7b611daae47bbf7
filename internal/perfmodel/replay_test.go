package perfmodel

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// ------------------------------------------------- the reference walk
//
// The exchange replay exactly as it stood before the occupancy-mask /
// closed-form-task rewrite (the parent's replay.go: NewExchangeReplay,
// Run, advance, stepTile, fabricStep and their state, verbatim apart
// from the ref prefix on names), kept as the reference
// TestExchangeReplayLockstep and FuzzExchangeReplay compare the live
// implementation against. It steps every tile on every cycle, scans
// every route entry of every hot router with a 64-bit rr % n, and burns
// task cycles one at a time: slow, and plainly the machine's schedule.

const (
	refQueueDepth = 4
	refRxDepth    = 4
	refBufElems   = 8
	refLanes      = 4
)

type refQ struct{ size, cap int }

type refTx struct{ color, rem int }
type refRx struct{ color, rem int }

// refEntry is a resolved route entry: pointers into the replay's own
// tile array, stable once built.
type refEntry struct {
	q, dst  *refQ
	port    uint8
	dstTile int32 // router tile to re-mark hot on push; -1 for rx delivery
}

// refStage is the mutable per-run image of a ReplayStage.
type refStage struct {
	task int
	tx   []refTx
	rx   []refRx
}

type refTile struct {
	entries []refEntry
	rr      int64
	hot     bool
	ramp    [4]refQ
	link    [4]refQ
	rx      [4]refQ
	subbed  [4]bool
	bufE    [4]int

	spec   []ReplayStage
	stages []refStage
	cur    int
	start  int64
	done   bool
}

// refReplay replays one application of a compiled exchange-phase
// program against a live fabric context. Build it once per program
// (newRefReplay walks every tile's spec); Run resets and replays,
// so repeated applications cost no allocation beyond the result's hot
// list.
type refReplay struct {
	w, h  int
	tiles []refTile

	hotCur, hotSpare []int
	pops             []*refQ
	pushes           []refPush
	still            []int

	busy, rxLanes, rrOut []int64
	deadQ                refQ
}

type refPush struct {
	q    *refQ
	tile int32
}

// refDelta and refPort map a direction-of-travel color to the neighbour
// offset and output port a word takes, matching the fabric's geometry.
var (
	refDelta = [4][2]int{saEast: {1, 0}, saWest: {-1, 0}, saSouth: {0, 1}, saNorth: {0, -1}}
	refPort  = [4]uint8{saEast: saPortE, saWest: saPortW, saSouth: saPortS, saNorth: saPortN}
)

// newRefReplay builds the replay for a w×h fabric from per-tile
// specs (row-major). It panics on an inject entry whose travel
// direction leaves the fabric — such a route cannot arise from the
// exchange lowering, so it signals a mis-mapped layout.
func newRefReplay(w, h int, spec func(ti int) ReplayTileSpec) *refReplay {
	n := w * h
	r := &refReplay{
		w: w, h: h,
		tiles:   make([]refTile, n),
		busy:    make([]int64, n),
		rxLanes: make([]int64, n),
		rrOut:   make([]int64, n),
	}
	for ti := 0; ti < n; ti++ {
		t := &r.tiles[ti]
		for c := 0; c < 4; c++ {
			t.ramp[c].cap = refQueueDepth
			t.link[c].cap = refQueueDepth
			t.rx[c].cap = refRxDepth
		}
	}
	for ti := 0; ti < n; ti++ {
		t := &r.tiles[ti]
		s := spec(ti)
		x, y := ti%w, ti/w
		t.entries = make([]refEntry, len(s.Entries))
		for j, e := range s.Entries {
			switch e.Kind {
			case ReplayDead:
				t.entries[j] = refEntry{q: &r.deadQ, dst: &r.deadQ, dstTile: -1}
			case ReplayInject:
				c := int(e.Color)
				nx, ny := x+refDelta[c][0], y+refDelta[c][1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					panic(fmt.Sprintf("perfmodel: inject entry at tile %d color %d leaves the fabric", ti, c))
				}
				nb := ny*w + nx
				t.entries[j] = refEntry{q: &t.ramp[c], dst: &r.tiles[nb].link[c], port: refPort[c], dstTile: int32(nb)}
			case ReplayDeliver:
				c := int(e.Color)
				t.entries[j] = refEntry{q: &t.link[c], dst: &t.rx[c], port: saPortRamp, dstTile: -1}
				t.subbed[c] = true
			}
		}
		t.spec = s.Stages
		t.stages = make([]refStage, len(s.Stages))
		for si, sp := range s.Stages {
			t.stages[si] = refStage{
				tx: make([]refTx, len(sp.Tx)),
				rx: make([]refRx, len(sp.Rx)),
			}
			for k, tx := range sp.Tx {
				t.stages[si].tx[k].color = tx.Color
			}
			for k, rx := range sp.Rx {
				t.stages[si].rx[k].color = rx.Color
			}
		}
	}
	return r
}

// Run replays one application: rr0 seeds each router's rotation, hot0
// is the fabric's current hot set. The result slices alias the
// replay's buffers and are valid until the next Run.
func (r *refReplay) Run(rr0 func(ti int) int64, hot0 []int) ReplayResult {
	n := len(r.tiles)
	for ti := 0; ti < n; ti++ {
		t := &r.tiles[ti]
		t.rr = rr0(ti)
		t.hot = false
		t.done = false
		t.cur = -1
		t.start = 0
		for c := 0; c < 4; c++ {
			t.ramp[c].size = 0
			t.link[c].size = 0
			t.rx[c].size = 0
			t.bufE[c] = 0
		}
		for si := range t.stages {
			st := &t.stages[si]
			sp := &t.spec[si]
			st.task = sp.Task
			for k := range st.tx {
				st.tx[k].rem = sp.Tx[k].Words
			}
			for k := range st.rx {
				st.rx[k].rem = sp.Rx[k].Elems
			}
		}
		r.busy[ti] = 0
		r.rxLanes[ti] = 0
	}
	r.hotCur = r.hotCur[:0]
	for _, ti := range hot0 {
		r.markHot(ti)
	}
	for ti := 0; ti < n; ti++ {
		r.advance(&r.tiles[ti], 0)
	}
	var moves int64
	guard := int64(1) << 40
	for cycle := int64(1); cycle <= guard; cycle++ {
		alldone := true
		for ti := 0; ti < n; ti++ {
			t := &r.tiles[ti]
			r.stepTile(ti, t, cycle)
			if !t.done {
				alldone = false
			}
		}
		moves += r.fabricStep()
		if alldone {
			for ti := 0; ti < n; ti++ {
				r.rrOut[ti] = r.tiles[ti].rr
			}
			hot := append([]int(nil), r.hotCur...)
			return ReplayResult{
				Cycles: cycle, Moves: moves,
				Busy: r.busy, RxLanes: r.rxLanes, RR: r.rrOut, Hot: hot,
			}
		}
	}
	panic("perfmodel: exchange replay did not terminate")
}

func (r *refReplay) advance(t *refTile, cycle int64) {
	for {
		t.cur++
		if t.cur >= len(t.stages) {
			t.done = true
			return
		}
		st := &t.stages[t.cur]
		if st.task < 0 && len(st.tx) == 0 && len(st.rx) == 0 {
			continue // empty relay round: skipped for free, as in launchRound
		}
		break
	}
	t.start = cycle + 1
}

func (r *refReplay) stepTile(ti int, t *refTile, cycle int64) {
	for c := 0; c < 4; c++ {
		if t.subbed[c] && t.rx[c].size > 0 && t.bufE[c] <= refBufElems-2 {
			t.rx[c].size--
			t.bufE[c] += 2
		}
	}
	if t.done || cycle < t.start {
		return
	}
	st := &t.stages[t.cur]
	if st.task >= 0 {
		// Every compute-task cycle issues lanes (the instructions are
		// full-column vector ops), so each burned cycle is a busy one.
		r.busy[ti]++
		st.task--
		if st.task == 0 {
			r.advance(t, cycle)
		}
		return
	}
	sent := false
	for i := range st.tx {
		tx := &st.tx[i]
		if tx.rem > 0 && !sent && t.ramp[tx.color].size < t.ramp[tx.color].cap {
			t.ramp[tx.color].size++
			r.markHot(ti)
			tx.rem--
			sent = true
		}
	}
	lanes := refLanes
	taken := 0
	for i := range st.rx {
		rx := &st.rx[i]
		if rx.rem > 0 && lanes > 0 {
			take := rx.rem
			if t.bufE[rx.color] < take {
				take = t.bufE[rx.color]
			}
			if lanes < take {
				take = lanes
			}
			rx.rem -= take
			t.bufE[rx.color] -= take
			lanes -= take
			taken += take
		}
	}
	if taken > 0 {
		// A send consumes no datapath lanes; only a cycle that stores
		// received elements counts as busy, matching the core's
		// used-lanes accounting.
		r.busy[ti]++
		r.rxLanes[ti] += int64(taken)
	}
	for i := range st.tx {
		if st.tx[i].rem > 0 {
			return
		}
	}
	for i := range st.rx {
		if st.rx[i].rem > 0 {
			return
		}
	}
	r.advance(t, cycle)
}

func (r *refReplay) markHot(ti int) {
	t := &r.tiles[ti]
	if !t.hot {
		t.hot = true
		r.hotCur = append(r.hotCur, ti)
	}
}

func (r *refReplay) fabricStep() int64 {
	cur := r.hotCur
	r.hotCur = r.hotSpare[:0]
	r.pops = r.pops[:0]
	r.pushes = r.pushes[:0]
	r.still = r.still[:0]
	for _, ti := range cur {
		t := &r.tiles[ti]
		t.hot = false
		n := len(t.entries)
		if n == 0 {
			continue
		}
		var claimed uint8
		hasWords := false
		idx := int(t.rr % int64(n))
		for k := 0; k < n; k++ {
			en := &t.entries[idx]
			idx++
			if idx == n {
				idx = 0
			}
			if en.q.size == 0 {
				continue
			}
			hasWords = true
			if claimed&(1<<en.port) != 0 {
				continue
			}
			if en.dst.size == en.dst.cap {
				continue
			}
			claimed |= 1 << en.port
			r.pops = append(r.pops, en.q)
			r.pushes = append(r.pushes, refPush{q: en.dst, tile: en.dstTile})
		}
		t.rr++
		if hasWords {
			r.still = append(r.still, ti)
		}
	}
	for _, q := range r.pops {
		q.size--
	}
	for _, p := range r.pushes {
		p.q.size++
		if p.tile >= 0 {
			r.markHot(int(p.tile))
		}
	}
	for _, ti := range r.still {
		r.markHot(ti)
	}
	r.hotSpare = cur
	return int64(len(r.pops))
}

// ------------------------------------------------------ the generator

// xrCase is one random lockstep case: a fabric, every tile's spec, and
// the (rr0, hot0) context of three consecutive Runs.
type xrCase struct {
	w, h  int
	desc  string
	specs []ReplayTileSpec
	rr0   [3][]int64
	hot0  [3][]int
}

// genCase draws a case: fabrics 1×1…9×7 (1-wide and 1-high included),
// a 3D relay program (halo widths 1–4, Z ∈ {2, 4, 6, 16, 64}, fused dot
// on or off) or a 2D block-halo program (B ∈ {2, 4, 6, 8}); optionally
// a per-tile lead task and tasks (behind an empty relay round) between
// the rounds, of lengths differing per tile — which puts tiles out of
// step, so words reach cores that are asleep in a task; optionally
// receive legs up to four words short of what the neighbour sends — so
// the phase ends with words in flight, many routers hot, and queues for
// the next Run's reset to clear; the fresh-fabric entry layout with 0–5
// dead entries spliced in at random positions (a different count per
// tile) and sometimes shuffled; rotation seeds up to 2⁴⁰; and a random
// hot subset in random order.
func genCase(rng *rand.Rand) xrCase {
	c := xrCase{w: 1 + rng.Intn(9), h: 1 + rng.Intn(7)}
	n := c.w * c.h
	widths := [3]int{1 + rng.Intn(4), 1 + rng.Intn(4), 1 + rng.Intn(4)}
	z := []int{2, 4, 6, 16, 64}[rng.Intn(5)]
	b := 2 * (1 + rng.Intn(4))
	points := []int{5, 9}[rng.Intn(2)]
	sumsq := rng.Intn(2) == 0
	prog2D := rng.Intn(4) == 0
	jitter := rng.Intn(3) == 0
	shuffle := rng.Intn(4) == 0
	short := max(0, rng.Intn(8)-3) // receive legs fall up to this many words short
	c.desc = fmt.Sprintf("%dx%d widths=%v z=%d b=%d points=%d sumsq=%v 2d=%v jitter=%v shuffle=%v short=%d",
		c.w, c.h, widths, z, b, points, sumsq, prog2D, jitter, shuffle, short)
	c.specs = make([]ReplayTileSpec, n)
	for ti := range c.specs {
		x, y := ti%c.w, ti/c.w
		stages := StencilApply3D{W: c.w, H: c.h, Z: z, Widths: widths, SumSq: sumsq}.Stages(x, y)
		if prog2D {
			stages = StencilApply2D{W: c.w, H: c.h, B: b, Points: points, SumSq: sumsq}.Stages(x, y)
		}
		if jitter {
			out := []ReplayStage{{Task: 1 + rng.Intn(12)}}
			for _, st := range stages {
				out = append(out, st)
				if st.Task < 0 && rng.Intn(3) == 0 {
					out = append(out, ReplayStage{Task: -1}, ReplayStage{Task: 1 + rng.Intn(8)})
				}
			}
			stages = out
		}
		if short > 0 {
			for _, st := range stages {
				for k := range st.Rx {
					st.Rx[k].Elems = max(0, st.Rx[k].Elems-2*rng.Intn(short+1))
				}
			}
		}
		entries := saEntries(x, y, c.w, c.h)
		for dead := rng.Intn(6); dead > 0; dead-- {
			entries = slices.Insert(entries, rng.Intn(len(entries)+1), ReplayEntry{Kind: ReplayDead})
		}
		if shuffle {
			rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		}
		c.specs[ti] = ReplayTileSpec{Entries: entries, Stages: stages}
	}
	for run := range c.rr0 {
		c.rr0[run] = make([]int64, n)
		for ti := range c.rr0[run] {
			c.rr0[run][ti] = rng.Int63n(1<<40 + 1)
		}
		for _, ti := range rng.Perm(n) {
			if rng.Intn(3) == 0 {
				c.hot0[run] = append(c.hot0[run], ti)
			}
		}
	}
	return c
}

// lockstep runs the case through the reference walk and the live replay,
// three consecutive Runs on one replay each (the reset path), and
// compares all six result fields after every Run — Hot including order.
func lockstep(t *testing.T, c xrCase) {
	t.Helper()
	spec := func(ti int) ReplayTileSpec { return c.specs[ti] }
	ref, live := newRefReplay(c.w, c.h, spec), NewExchangeReplay(c.w, c.h, spec)
	var cycles int64
	for run := range c.rr0 {
		rr0 := func(ti int) int64 { return c.rr0[run][ti] }
		want, got := ref.Run(rr0, c.hot0[run]), live.Run(rr0, c.hot0[run])
		if got.Cycles != want.Cycles || got.Moves != want.Moves {
			t.Fatalf("%s run %d: cycles/moves %d/%d, reference %d/%d", c.desc, run, got.Cycles, got.Moves, want.Cycles, want.Moves)
		}
		for _, f := range []struct {
			name      string
			got, want []int64
		}{{"Busy", got.Busy, want.Busy}, {"RxLanes", got.RxLanes, want.RxLanes}, {"RR", got.RR, want.RR}} {
			if !slices.Equal(f.got, f.want) {
				t.Fatalf("%s run %d: %s\n got  %v\n want %v", c.desc, run, f.name, f.got, f.want)
			}
		}
		if !slices.Equal(got.Hot, want.Hot) {
			t.Fatalf("%s run %d: Hot (order matters)\n got  %v\n want %v", c.desc, run, got.Hot, want.Hot)
		}
		cycles += want.Cycles
	}
	if runs, cyc, jumped := live.Stats(); runs != 3 || cyc != cycles || jumped < 0 || jumped >= cyc {
		t.Fatalf("%s: Stats() = %d runs, %d cycles, %d jumped; want 3 runs, %d cycles, 0 <= jumped < cycles", c.desc, runs, cyc, jumped, cycles)
	}
}

// TestExchangeReplayLockstep pins the live replay to the reference walk
// over random cases (see genCase) and one directed case. Mutations of
// replay.go checked against it, each of which fails this test:
//
//   - skipping the mask clear on the pop that empties a queue: the next
//     scan claims a word that is not there, the occupancy underflows and
//     the phase never drains (the test times out);
//   - waking a task one cycle late (start = cycle + task + 1): Cycles is
//     off on the first jittered case;
//   - letting a tile sleep, and the clock jump, while a received word is
//     pending: dropping the wake on delivery fails Busy within a few
//     cases; dropping only wakeAfter's pending-word rule survives 50,000
//     random cases and fails asleepWithPendingRx (RR);
//   - wrapping rr mod n one slot late, or scanning the mask from bit 0
//     instead of rotation order: Busy or Cycles;
//   - re-marking routers that still hold words before, rather than
//     after, the pushes' destinations: Hot order (the short receive legs
//     are what leave a long final hot list to compare).
func TestExchangeReplayLockstep(t *testing.T) {
	cases := 400
	if testing.Short() {
		cases = 60
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < cases; i++ {
		lockstep(t, genCase(rng))
	}
	lockstep(t, asleepWithPendingRx())
}

// asleepWithPendingRx is the case the random generator all but never
// draws (found by sweeping word counts and task lengths against the
// mutant): tile 1 goes to sleep in a task with its east receive buffer
// full, room in the stream buffer and one last word waiting on the link.
// No delivery can wake it — the buffer is full — so only the rule that a
// pending receive word keeps a tile stepped drains the buffer, lets the
// router deliver that word and cool, and stops its rotation charges.
func asleepWithPendingRx() xrCase {
	east := func(words, elems int) ReplayStage {
		st := ReplayStage{Task: -1}
		if words > 0 {
			st.Tx = []ReplayTx{{Color: saEast, Words: words}}
		}
		if elems > 0 {
			st.Rx = []ReplayRx{{Color: saEast, Elems: elems}}
		}
		return st
	}
	c := xrCase{w: 2, h: 1, desc: "asleep with a pending rx word", specs: []ReplayTileSpec{
		{Entries: []ReplayEntry{{Kind: ReplayInject, Color: saEast}}, Stages: []ReplayStage{east(9, 0)}},
		{Entries: []ReplayEntry{{Kind: ReplayDeliver, Color: saEast}},
			Stages: []ReplayStage{{Task: 9}, east(0, 2), {Task: 6}, east(0, 16), {Task: 10}}},
	}}
	for run := range c.rr0 {
		c.rr0[run] = []int64{int64(run), 5}
	}
	return c
}

// TestExchangeReplayHotOrderFree pins that the order of the starting
// hot list is not state: fabric.HotTiles joins its per-shard lists, so
// the order stencilc hands to Run depends on the shard count. Every
// router claims against pre-cycle occupancies and the claims commit
// together, so a permuted hot0 must give the same cycles, moves, busy
// and lane tallies, rotations and final hot set (in whatever order).
func TestExchangeReplayHotOrderFree(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 40
	}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < cases; i++ {
		c := genCase(rng)
		spec := func(ti int) ReplayTileSpec { return c.specs[ti] }
		a, b := NewExchangeReplay(c.w, c.h, spec), NewExchangeReplay(c.w, c.h, spec)
		for run := range c.rr0 {
			rr0 := func(ti int) int64 { return c.rr0[run][ti] }
			perm := slices.Clone(c.hot0[run])
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			want, got := a.Run(rr0, c.hot0[run]), b.Run(rr0, perm)
			if got.Cycles != want.Cycles || got.Moves != want.Moves ||
				!slices.Equal(got.Busy, want.Busy) || !slices.Equal(got.RxLanes, want.RxLanes) || !slices.Equal(got.RR, want.RR) {
				t.Fatalf("%s run %d: a permuted hot list changed the replay", c.desc, run)
			}
			if g, w := slices.Sorted(slices.Values(got.Hot)), slices.Sorted(slices.Values(want.Hot)); !slices.Equal(g, w) {
				t.Fatalf("%s run %d: final hot set %v, unpermuted %v", c.desc, run, g, w)
			}
		}
	}
}

// FuzzExchangeReplay drives the same generator from a fuzzed seed.
func FuzzExchangeReplay(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		lockstep(t, genCase(rand.New(rand.NewSource(seed))))
	})
}

// TestExchangeReplayJumps checks that the closed form engages where it
// should: a lone tile's program is tasks only, so every cycle but the
// ones tasks retire on is jumped.
func TestExchangeReplayJumps(t *testing.T) {
	r := NewExchangeReplay(1, 1, func(int) ReplayTileSpec {
		return ReplayTileSpec{Stages: []ReplayStage{{Task: 40}, {Task: 2}}}
	})
	res := r.Run(func(int) int64 { return 7 }, nil)
	if res.Cycles != 42 || res.Busy[0] != 42 || res.RR[0] != 7 || len(res.Hot) != 0 {
		t.Fatalf("cycles %d busy %d rr %d hot %v, want 42 42 7 []", res.Cycles, res.Busy[0], res.RR[0], res.Hot)
	}
	if _, _, jumped := r.Stats(); jumped != 40 {
		t.Fatalf("jumped %d of 42 cycles, want 40", jumped)
	}
}

func wantPanic(t *testing.T, name, msg string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if p := fmt.Sprint(recover()); !strings.Contains(p, msg) {
			t.Errorf("%s: panic %q, want one containing %q", name, p, msg)
		}
	}()
	f()
}

// TestNewExchangeReplayRejects: what the closed form and the mask cannot
// represent is refused at build time, with a message.
func TestNewExchangeReplayRejects(t *testing.T) {
	for _, tc := range []struct {
		name, msg string
		spec      ReplayTileSpec
	}{
		{"zero-length task", "zero-length task",
			ReplayTileSpec{Stages: []ReplayStage{{Task: 3}, {Task: 0}}}},
		{"mask overflow", "route entries",
			ReplayTileSpec{Entries: make([]ReplayEntry, xrMaxEntries+1), Stages: []ReplayStage{{Task: 1}}}},
		{"five send legs", "legs",
			ReplayTileSpec{Stages: []ReplayStage{{Task: -1, Tx: make([]ReplayTx, xrMaxLegs+1)}}}},
		{"negative count", "out of range",
			ReplayTileSpec{Stages: []ReplayStage{{Task: -1, Rx: []ReplayRx{{Color: saEast, Elems: -2}}}}}},
		{"inject off the fabric", "leaves the fabric",
			ReplayTileSpec{Entries: []ReplayEntry{{Kind: ReplayInject, Color: saEast}}}},
	} {
		wantPanic(t, tc.name, tc.msg, func() {
			NewExchangeReplay(1, 1, func(int) ReplayTileSpec { return tc.spec })
		})
	}
	// The widest router the mask holds is accepted.
	NewExchangeReplay(1, 1, func(int) ReplayTileSpec {
		return ReplayTileSpec{Entries: make([]ReplayEntry, xrMaxEntries), Stages: []ReplayStage{{Task: 1}}}
	})
}

// TestStencilApplyRejects: the thin clients refuse shapes no program
// can be compiled for rather than replaying a zero-length task.
func TestStencilApplyRejects(t *testing.T) {
	for _, tc := range []struct {
		name, msg string
		f         func()
	}{
		{"3D Z=0", "Z = 0", func() { StencilApply3D{W: 3, H: 3, Z: 0, Widths: [3]int{1, 1, 1}}.Cycles() }},
		{"3D Z=-4", "Z = -4", func() { StencilApply3D{W: 1, H: 1, Z: -4, Widths: [3]int{1, 1, 1}}.Cycles() }},
		{"2D B=1", "B = 1", func() { StencilApply2D{W: 3, H: 3, B: 1, Points: 5}.Cycles() }},
		{"2D B=0", "B = 0", func() { StencilApply2D{W: 1, H: 1, B: 0, Points: 9}.Cycles() }},
	} {
		wantPanic(t, tc.name, tc.msg, tc.f)
	}
}
