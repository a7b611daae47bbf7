package fabric

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// This file is the fabric's specification check: it locksteps both
// engines against the claim phase they replaced.
//
// refClaim below is the claim phase as it stood before multicast entries
// cached their fan-out — claim and claimEntry verbatim, so that the walk
// reaches refClaimMulticast, which redoes CoordOf/In/Index and the (port,
// color) lookup per port per word — and refStep runs it on one shard.
// Sequential and Sharded share claimMulticast, so comparing the two
// engines with each other cannot see a bug in it.
// TestShardedMatchesSequential, TestShardedDrain, TestClaimLockstep and
// FuzzClaim drive random multicast trees on a fabric stepped by
// Sequential, one stepped by Sharded with the parallel path forced and
// one stepped by refStep, through a drain to Quiescent. Every cycle they
// require the same Send admissions, Recv results, moves and Fingerprint,
// and the same rx-delivery wakes and hot list: in order for Sequential
// (the order is what a staged push order shows up in), as sets for
// Sharded, whose shards walk lists of their own. Mutations seen to fail
// TestClaimLockstep and TestShardedMatchesSequential: pushes staged in descending port order; the
// all-or-nothing rule dropped (claim with one destination full); an
// output link claimed twice in a cycle (outClaimed test dropped); a
// stale fan-out kept across SetRoute.

// refStep advances a sequential fabric one cycle through refClaim.
func refStep(f *Fabric) {
	f.cycle++
	e := f.stepper
	e.refClaim(0)
	e.commit(0)
	f.moves += e.sh[0].moves
	e.sh[0].moves = 0
}

// refClaim is the pre-PR-20 claim.
func (e *Stepper) refClaim(s int) {
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
		n := int(r.n)
		if n == 0 {
			continue
		}
		ents := f.entries(ti)
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
				e.refClaimEntry(s, ti, &ents[idx+bits.TrailingZeros64(m)], &outClaimed)
			}
			for m := occ & (1<<uint(idx) - 1); m != 0; m &= m - 1 {
				e.refClaimEntry(s, ti, &ents[bits.TrailingZeros64(m)], &outClaimed)
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
			e.refClaimEntry(s, ti, en, &outClaimed)
		}
		if hasWords {
			st.stillHot = append(st.stillHot, ti)
		}
	}
}

// refClaimEntry is the pre-PR-20 claimEntry.
func (e *Stepper) refClaimEntry(s, ti int, en *routeEntry, outClaimed *PortMask) {
	if en.single {
		p := en.sport
		if outClaimed.Has(p) {
			return
		}
		if en.dst < 0 {
			e.f.resolveSingle(ti, en)
		}
		if full(e.f, en.dst) {
			return // destination full; word waits
		}
		*outClaimed |= 1 << p
		st := &e.sh[s]
		st.pops = append(st.pops, en.q)
		st.pushes[en.dstShard] = append(st.pushes[en.dstShard],
			stagedPush{q: en.dst, tile: en.dstTile, bits: e.f.peek(en.q)})
		return
	}
	e.refClaimMulticast(s, ti, en, outClaimed)
}

// refClaimMulticast is the pre-PR-20 claimMulticast: all-or-nothing
// fanout of the head word to every configured output port, with the
// destinations looked up port by port on every claim.
func (e *Stepper) refClaimMulticast(s, ti int, en *routeEntry, outClaimed *PortMask) {
	f := e.f
	st := &e.sh[s]
	at := f.CoordOf(ti)
	outs := en.outs
	if outs == 0 {
		panic(fmt.Sprintf("fabric: word on unrouted (%v,%d) at %v", en.in, en.c, at))
	}
	var dst [NumPorts]int32
	var dtile [NumPorts]int32
	ok := true
	for p := Port(0); p < NumPorts && ok; p++ {
		if !outs.Has(p) {
			continue
		}
		if outClaimed.Has(p) {
			ok = false
			break
		}
		if p == Ramp {
			rq := f.rxQueue(ti, en.c)
			if full(f, rq) {
				ok = false
				continue
			}
			dst[p], dtile[p] = rq, rxTile(ti, en.c)
			continue
		}
		dx, dy := p.Delta()
		nb := Coord{at.X + dx, at.Y + dy}
		if !f.In(nb) {
			// Configured route off the fabric edge: drop target. The
			// paper's patterns never do this; flag loudly.
			panic(fmt.Sprintf("fabric: route off edge at %v port %v", at, p))
		}
		nbi := f.Index(nb)
		nq := f.inputQueue(nbi, p.Opposite(), en.c)
		if nq < 0 {
			panic(fmt.Sprintf("fabric: no route configured at %v for arrivals on (%v,%d)", nb, p.Opposite(), en.c))
		}
		if full(f, nq) {
			ok = false
			continue
		}
		dst[p], dtile[p] = nq, int32(nbi)
	}
	if !ok {
		return
	}
	bits := f.peek(en.q)
	st.pops = append(st.pops, en.q)
	for p := Port(0); p < NumPorts; p++ {
		if !outs.Has(p) {
			continue
		}
		*outClaimed |= 1 << p
		if p == Ramp {
			st.pushes[s] = append(st.pushes[s], stagedPush{q: dst[p], tile: dtile[p], bits: bits})
		} else {
			sh := f.shardOf[dtile[p]]
			st.pushes[sh] = append(st.pushes[sh], stagedPush{q: dst[p], tile: dtile[p], bits: bits})
		}
	}
}

// full reports whether queue qi has no room.
func full(f *Fabric, qi int32) bool { return f.qs[qi].size == f.qs[qi].cap }

// claimCase is one lockstep run: a w×h fabric with router queues and
// receive buffers depth deep, the sharded leg on shards shards, and
// cycles cycles of injection before the drain.
type claimCase struct{ w, h, depth, shards, cycles int }

// claimCaseOf decodes a fuzz input: fabrics 2–13 × 2–13, depths 1–4,
// 2–9 shards and 16–143 injection cycles.
func claimCaseOf(dims, cycles uint64) claimCase {
	return claimCase{
		w: int(dims&0xff)%12 + 2, h: int(dims>>8&0xff)%12 + 2,
		depth: int(dims>>16&0xff)%4 + 1, shards: int(dims>>24&0xff)%8 + 2,
		cycles: int(cycles%128) + 16,
	}
}

// runClaimLockstep builds the seed's routes on three fabrics — stepped
// by Sequential, by Sharded(c.shards) with the parallel path forced, and
// by refStep — and steps them side by side: c.cycles cycles of random
// injection and random draining, then every ramp drained each cycle
// until all three are Quiescent.
func runClaimLockstep(t *testing.T, seed int64, c claimCase) {
	w, h := c.w, c.h
	type flow struct {
		src Coord
		c   Color
	}
	var flows []flow
	var rxs [][2]int // (tile, color) with a ramp delivery
	// build draws the routes: each color is a tree grown from its source's
	// ramp — at every tile the word goes on in one to three directions and
	// may also drop to the core — so most entries are multicast, several
	// colors cross the same routers, and trees end on ramps.
	build := func(f *Fabric) {
		r := rand.New(rand.NewSource(seed))
		record := flows == nil
		nFlows := r.Intn(5) + 1
		for fi := 0; fi < nFlows; fi++ {
			c := Color(r.Intn(MaxColors/nFlows) + fi*(MaxColors/nFlows))
			src := Coord{X: r.Intn(w), Y: r.Intn(h)}
			if record {
				flows = append(flows, flow{src, c})
			}
			seen := map[Coord]bool{src: true}
			type hop struct {
				at Coord
				in Port
			}
			frontier := []hop{{src, Ramp}}
			for len(frontier) > 0 {
				hp := frontier[0]
				frontier = frontier[1:]
				var outs PortMask
				for _, p := range r.Perm(4)[:r.Intn(3)+1] {
					dx, dy := Port(p).Delta()
					nb := Coord{hp.at.X + dx, hp.at.Y + dy}
					if !f.In(nb) || seen[nb] {
						continue
					}
					seen[nb] = true
					outs |= Mask(Port(p))
					frontier = append(frontier, hop{nb, Port(p).Opposite()})
				}
				if outs == 0 || r.Intn(2) == 0 {
					outs |= Mask(Ramp)
					if record {
						rxs = append(rxs, [2]int{f.Index(hp.at), int(c)})
					}
				}
				f.SetRoute(hp.at, hp.in, c, outs)
			}
		}
	}
	type wake struct {
		tile int
		c    Color
	}
	seq := New(Config{W: w, H: h, QueueDepth: c.depth, RxDepth: c.depth})
	shd := New(Config{W: w, H: h, QueueDepth: c.depth, RxDepth: c.depth, Stepper: Sharded(c.shards)})
	ForceParallel(shd)
	defer shd.Close()
	ref := New(Config{W: w, H: h, QueueDepth: c.depth, RxDepth: c.depth})
	// fabs[0:2] are the engines, each checked against fabs[2]. wakes[i][s]
	// holds fabric i's rx deliveries of the cycle on shard s: the sharded
	// fabric fires them from its shards' goroutines.
	fabs := [3]*Fabric{seq, shd, ref}
	name := [2]string{"sequential", fmt.Sprintf("%d shards", len(shd.ShardRanges()))}
	var wakes [3][][]wake
	for i, f := range fabs {
		build(f)
		wakes[i] = make([][]wake, len(f.ShardRanges()))
		f.OnRxDelivery(func(tile int, c Color) {
			s := f.ShardOf(tile)
			wakes[i][s] = append(wakes[i][s], wake{tile, c})
		})
	}
	byTile := func(a, b wake) int { return cmp.Or(cmp.Compare(a.tile, b.tile), cmp.Compare(a.c, b.c)) }

	r := rand.New(rand.NewSource(seed + 1))
	for cyc := 0; ; cyc++ {
		drain := cyc >= c.cycles
		if drain && seq.Quiescent() && shd.Quiescent() && ref.Quiescent() {
			return
		}
		if cyc == c.cycles+4096 {
			t.Fatalf("%+v: not drained 4096 cycles after the last injection", c)
		}
		for _, fl := range flows {
			if !drain && r.Intn(3) > 0 {
				wd := Word{Color: fl.c, Bits: r.Uint32()}
				want := ref.Send(fl.src, wd)
				for i := range name {
					if got := fabs[i].Send(fl.src, wd); got != want {
						t.Fatalf("cycle %d (%+v): %s Send admission %v, reference claim %v", cyc, c, name[i], got, want)
					}
				}
			}
		}
		if cyc == c.cycles/2 && len(flows) > 0 {
			// Reroute a claimed entry mid-run: the source of the first tree
			// now also (or no longer) delivers to its own core.
			fl := flows[0]
			if outs := ref.Route(fl.src, Ramp, fl.c) ^ Mask(Ramp); outs != 0 {
				for _, f := range fabs {
					f.SetRoute(fl.src, Ramp, fl.c, outs)
				}
				if outs.Has(Ramp) {
					rxs = append(rxs, [2]int{ref.Index(fl.src), int(fl.c)})
				}
			}
		}
		for i := range wakes {
			for s := range wakes[i] {
				wakes[i][s] = wakes[i][s][:0]
			}
		}
		seq.Step()
		shd.Step()
		refStep(ref)
		// Sequential claims in the reference's order, so its wakes and hot
		// list must match in order; each shard walks its own list, so the
		// sharded fabric's must match as sets.
		wantWakes, wantHot := wakes[2][0], ref.HotTiles()
		if !slices.Equal(wakes[0][0], wantWakes) {
			t.Fatalf("cycle %d (%+v): sequential rx deliveries %v, reference claim %v", cyc, c, wakes[0][0], wantWakes)
		}
		if got := seq.HotTiles(); !slices.Equal(got, wantHot) {
			t.Fatalf("cycle %d (%+v): sequential hot list %v, reference claim %v", cyc, c, got, wantHot)
		}
		slices.SortFunc(wantWakes, byTile)
		if got := slices.SortedFunc(slices.Values(slices.Concat(wakes[1]...)), byTile); !slices.Equal(got, wantWakes) {
			t.Fatalf("cycle %d (%+v): %s rx deliveries %v, reference claim %v", cyc, c, name[1], got, wantWakes)
		}
		if got, want := slices.Sorted(slices.Values(shd.HotTiles())), slices.Sorted(slices.Values(wantHot)); !slices.Equal(got, want) {
			t.Fatalf("cycle %d (%+v): %s hot set %v, reference claim %v", cyc, c, name[1], got, want)
		}
		for i := range name {
			if got, want := fabs[i].Fingerprint(), ref.Fingerprint(); got != want {
				t.Fatalf("cycle %d (%+v): %s fingerprint %#x, reference claim %#x", cyc, c, name[i], got, want)
			}
			if got, want := fabs[i].Moves(), ref.Moves(); got != want {
				t.Fatalf("cycle %d (%+v): %s moves %d, reference claim %d", cyc, c, name[i], got, want)
			}
		}
		// Cores drain some ramps and leave others to back up; the drain
		// empties every ramp every cycle.
		for _, rx := range rxs {
			if drain || r.Intn(3) == 0 {
				at, col := ref.CoordOf(rx[0]), Color(rx[1])
				want, wantOK := ref.Recv(at, col)
				for i := range name {
					if got, ok := fabs[i].Recv(at, col); got != want || ok != wantOK {
						t.Fatalf("cycle %d (%+v): %s Recv at %v color %d: %v %v, reference claim %v %v",
							cyc, c, name[i], at, col, got, ok, want, wantOK)
					}
				}
			}
		}
	}
}

// TestShardedMatchesSequential runs the claim lockstep on the shapes
// that matter to the sharded engine: both engines meet the reference
// claim every cycle, and so each other. Each shape carries five trees
// and injects for 400 cycles: shards of four rows and of one (8×8 on 2
// and on 8), uneven shards (16×16 on 7, where shards 0 and 2 lie outside
// each other's near window), a shard count that does not divide the rows
// (5×9 on 3) and more shards than rows (12×4 on 16).
func TestShardedMatchesSequential(t *testing.T) {
	for _, c := range []claimCase{
		{8, 8, 4, 2, 400}, {8, 8, 4, 8, 400}, {16, 16, 4, 4, 400},
		{16, 16, 4, 7, 400}, {5, 9, 4, 3, 400}, {12, 4, 4, 16, 400},
	} {
		t.Run(fmt.Sprintf("%dx%d-w%d", c.w, c.h, c.shards), func(t *testing.T) { runClaimLockstep(t, 4, c) })
	}
}

// TestShardedDrain injects on 16×16 over 8 shards for 64 cycles and then
// drains (75 cycles) until all three fabrics are Quiescent.
func TestShardedDrain(t *testing.T) {
	runClaimLockstep(t, 10, claimCase{16, 16, 4, 8, 64})
}

// TestClaimLockstep runs the claim lockstep over a spread of seeds and
// fuzz-decoded shapes.
func TestClaimLockstep(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 150; i++ {
		runClaimLockstep(t, int64(i+1), claimCaseOf(r.Uint64(), r.Uint64()))
	}
}

// FuzzClaim is the open-ended form of TestClaimLockstep (make fuzz, CI
// fuzz-smoke); testdata/fuzz/FuzzClaim holds more seeds.
func FuzzClaim(f *testing.F) {
	f.Add(int64(1), uint64(0x020303), uint64(40))
	f.Add(int64(-9), uint64(0x000504), uint64(100))
	f.Add(int64(1), uint64(0x0808), uint64(24))
	f.Add(int64(42), uint64(0x0c05), uint64(64))
	f.Add(int64(-7), uint64(0x0310), uint64(40))
	f.Add(int64(1<<40), uint64(0x0202), uint64(8))
	f.Fuzz(func(t *testing.T, seed int64, dims, cycles uint64) {
		runClaimLockstep(t, seed, claimCaseOf(dims, cycles))
	})
}
