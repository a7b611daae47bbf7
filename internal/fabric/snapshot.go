package fabric

import "fmt"

// This file captures and restores the fabric's complete architectural
// state — everything Fingerprint hashes plus the hot-tile marks the
// arbitration walk depends on. The wse machine snapshot (wse/snapshot.go)
// embeds a State; the versioned binary encoding lives there, keeping
// this package free of serialization concerns.

// QueueSnap is the contents of one non-empty word queue. In < NumPorts
// addresses a router input queue for (In, Color); In == NumPorts
// addresses the tile's core receive buffer for Color.
type QueueSnap struct {
	Tile  int32
	In    uint8
	Color uint8
	Words []uint32
}

// State is a restorable capture of a Fabric. Two fabrics with the same
// routing program and equal States evolve bit-identically from that
// point on, for any stepping engine.
type State struct {
	W, H         int
	Cycle, Moves int64
	// RR is each router's output arbitration rotation (only rotation
	// slot 0 is ever advanced by the stepping engines; see router.rr).
	RR []int64
	// Queues lists every non-empty router input queue and core receive
	// buffer, in tile/port/color order.
	Queues []QueueSnap
	// Hot lists the tiles currently marked hot (ascending). Hot marks
	// are architectural: the claim walk advances a hot tile's
	// arbitration rotation every cycle until the tile cools, so a
	// restore that dropped them would let rr drift from the original.
	Hot []int32
}

// CaptureState snapshots the fabric. It must not run concurrently with
// Step.
func (f *Fabric) CaptureState() *State {
	s := &State{W: f.W, H: f.H, Cycle: f.cycle, Moves: f.moves, RR: make([]int64, len(f.routers))}
	snapQueue := func(tile int, in Port, c Color, q int32) {
		qs := QueueSnap{Tile: int32(tile), In: uint8(in), Color: uint8(c), Words: make([]uint32, f.qs[q].size)}
		for k := range qs.Words {
			qs.Words[k] = f.at(q, k)
		}
		s.Queues = append(s.Queues, qs)
	}
	for i := range f.routers {
		s.RR[i] = f.routers[i].rr
		f.eachBusyInput(i, func(en *routeEntry) { snapQueue(i, en.in, en.c, en.q) })
		for c, q := range f.rx[i] {
			if q != 0 && f.qs[q-1].size != 0 {
				snapQueue(i, NumPorts, Color(c), q-1)
			}
		}
	}
	for i, h := range f.hot {
		if h {
			s.Hot = append(s.Hot, int32(i))
		}
	}
	return s
}

// RestoreState loads s into the fabric, which must have the same
// dimensions and the same routing program as the captured one (every
// captured router queue must exist here). Queue contents, counters,
// arbitration rotations and hot marks are replaced wholesale; the
// engine shard partition may differ (hot marks re-shard on restore), so
// a capture restores across worker counts.
func (f *Fabric) RestoreState(s *State) error {
	if s.W != f.W || s.H != f.H {
		return fmt.Errorf("fabric: snapshot is %dx%d, fabric is %dx%d", s.W, s.H, f.W, f.H)
	}
	if len(s.RR) != len(f.routers) {
		return fmt.Errorf("fabric: snapshot has %d routers, fabric has %d", len(s.RR), len(f.routers))
	}
	// Reset live state.
	for i := range f.routers {
		r := &f.routers[i]
		r.rr = s.RR[i]
		if r.n > 0 {
			r.rrIdx = uint8(r.rr % int64(r.n))
		}
		r.occ = 0 // queue refill below re-sets bits via push
	}
	for i := range f.qs {
		f.qs[i].head, f.qs[i].size = 0, 0
	}
	f.cycle, f.moves = s.Cycle, s.Moves
	for i := range f.hot {
		f.hot[i] = false
	}
	for sh := range f.hotLists {
		f.hotLists[sh] = f.hotLists[sh][:0]
	}
	// Refill queues.
	for _, qs := range s.Queues {
		ti := int(qs.Tile)
		if ti < 0 || ti >= len(f.routers) {
			return fmt.Errorf("fabric: snapshot queue at tile %d out of range", ti)
		}
		if qs.Color >= MaxColors || qs.In > uint8(NumPorts) {
			return fmt.Errorf("fabric: snapshot queue at tile %d has bad port/color %d/%d", ti, qs.In, qs.Color)
		}
		var q int32
		if qs.In == uint8(NumPorts) {
			q = f.rxQueue(ti, Color(qs.Color))
			f.qs[q].live = true
		} else {
			q = f.inputQueue(ti, Port(qs.In), Color(qs.Color))
			if q < 0 {
				return fmt.Errorf("fabric: snapshot has words on (%v,%d) at tile %d but no such route is configured",
					Port(qs.In), qs.Color, ti)
			}
		}
		for _, w := range qs.Words {
			if !f.push(q, w) {
				return fmt.Errorf("fabric: snapshot queue at tile %d (%d words) exceeds configured depth %d",
					ti, len(qs.Words), f.qs[q].cap)
			}
		}
	}
	for _, t := range s.Hot {
		if t < 0 || int(t) >= len(f.hot) {
			return fmt.Errorf("fabric: snapshot hot tile %d out of range", t)
		}
		f.markHot(int(t))
	}
	return nil
}
