package fabric

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// This file locksteps the claim phase against the one it replaced.
//
// The sequential and sharded engines share claimMulticast, so the
// engine-equivalence tests cannot see a bug in it. refClaim below is the
// claim phase as it stood before multicast entries cached their
// fan-out — claim and claimEntry verbatim, so that the walk reaches
// refClaimMulticast, which redoes CoordOf/In/Index and the (port,
// color) lookup per port per word. TestClaimLockstep and FuzzClaim drive
// random multicast trees on a fabric stepped by the engine and on one
// stepped by refStep, and require the same Send admissions, the same
// rx-delivery wake sequence, the same hot list (order included: it is
// what a staged push order shows up in) and the same Fingerprint every
// cycle. Mutations seen to fail: pushes staged in descending port order;
// the all-or-nothing rule dropped (claim with one destination full); an
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

// runClaimLockstep builds the seed's routes on two fabrics and steps them
// side by side.
func runClaimLockstep(t *testing.T, seed int64, dims, cycles uint64) {
	w := int(dims&0xff)%5 + 2
	h := int(dims>>8&0xff)%5 + 2
	depth := int(dims>>16&0xff)%4 + 1
	n := int(cycles%128) + 16

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
	var wa, wb []wake
	a := New(Config{W: w, H: h, QueueDepth: depth, RxDepth: depth})
	build(a)
	a.OnRxDelivery(func(tile int, c Color) { wa = append(wa, wake{tile, c}) })
	b := New(Config{W: w, H: h, QueueDepth: depth, RxDepth: depth})
	build(b)
	b.OnRxDelivery(func(tile int, c Color) { wb = append(wb, wake{tile, c}) })

	r := rand.New(rand.NewSource(seed + 1))
	for cyc := 0; cyc < n; cyc++ {
		for _, fl := range flows {
			if r.Intn(3) > 0 {
				wd := Word{Color: fl.c, Bits: r.Uint32()}
				if sa, sb := a.Send(fl.src, wd), b.Send(fl.src, wd); sa != sb {
					t.Fatalf("cycle %d: Send admission diverges: %v, reference claim %v", cyc, sa, sb)
				}
			}
		}
		if cyc == n/2 && len(flows) > 0 {
			// Reroute a claimed entry mid-run: the source of the first tree
			// now also (or no longer) delivers to its own core.
			fl := flows[0]
			outs := a.Route(fl.src, Ramp, fl.c) ^ Mask(Ramp)
			if outs != 0 {
				a.SetRoute(fl.src, Ramp, fl.c, outs)
				b.SetRoute(fl.src, Ramp, fl.c, outs)
			}
		}
		wa, wb = wa[:0], wb[:0]
		a.Step()
		refStep(b)
		if !slices.Equal(wa, wb) {
			t.Fatalf("cycle %d: rx deliveries %v, reference claim %v", cyc, wa, wb)
		}
		if ha, hb := a.HotTiles(), b.HotTiles(); !slices.Equal(ha, hb) {
			t.Fatalf("cycle %d: hot list %v, reference claim %v", cyc, ha, hb)
		}
		if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
			t.Fatalf("cycle %d (%dx%d depth %d): fingerprint %#x, reference claim %#x", cyc, w, h, depth, fa, fb)
		}
		// Cores drain some ramps and leave others to back up.
		for _, rx := range rxs {
			if r.Intn(3) == 0 {
				at, c := a.CoordOf(rx[0]), Color(rx[1])
				ra, oka := a.Recv(at, c)
				rb, okb := b.Recv(at, c)
				if ra != rb || oka != okb {
					t.Fatalf("cycle %d: Recv diverges at %v color %d", cyc, at, c)
				}
			}
		}
	}
}

// TestClaimLockstep runs the claim lockstep over a spread of seeds,
// fabric shapes (2–6 × 2–6) and queue depths (1–4).
func TestClaimLockstep(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 300; i++ {
		runClaimLockstep(t, int64(i+1), r.Uint64(), r.Uint64())
	}
}

// FuzzClaim is the open-ended form of TestClaimLockstep.
func FuzzClaim(f *testing.F) {
	f.Add(int64(1), uint64(0x020303), uint64(40))
	f.Add(int64(-9), uint64(0x000504), uint64(100))
	f.Fuzz(runClaimLockstep)
}
