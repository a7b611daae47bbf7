package fabric

import "fmt"

// This file is the fabric's fast-forward support surface: the
// introspection the analytic phase replays need (entry layouts,
// arbitration counters, the hot set), the two ways a replayed phase is
// applied back — dead-cycle advancement (AdvanceIdle) and full replay
// application (ApplyReplay) — and the arbitration restart of a
// coefficient reload (RestartArbitration). All of it is host-tooling
// around the same architectural state the steppers maintain; none of it
// can express a state that a cycle-by-cycle run, or a freshly built
// fabric, does not reach, and the preconditions panic rather than
// silently diverge.

// RouteKey identifies one configured route entry of a router: the
// input port and color it matches.
type RouteKey struct {
	In Port
	C  Color
}

// EntryLayout appends tile's configured route entries to dst in
// arbitration order — the first-configured order the claim rotation
// walks, which is part of the simulated state — and returns the
// extended slice. Analytic phase replays (perfmodel's exact
// stencil-exchange model) mirror this layout so their rotation
// decisions match the engine's entry for entry; they read it tile by
// tile into one reused buffer.
func (f *Fabric) EntryLayout(dst []RouteKey, tile int) []RouteKey {
	for _, en := range f.entries(tile) {
		dst = append(dst, RouteKey{In: en.in, C: en.c})
	}
	return dst
}

// RR returns tile's arbitration rotation counter.
func (f *Fabric) RR(tile int) int64 { return f.routers[tile].rr }

// HotCount returns the number of tiles currently marked hot — tiles
// the next Step's claim phase will visit (and charge one arbitration
// rotation each).
func (f *Fabric) HotCount() int {
	n := 0
	for _, l := range f.hotLists {
		n += len(l)
	}
	return n
}

// HotTiles returns the currently hot tiles in shard-list order.
func (f *Fabric) HotTiles() []int {
	out := make([]int, 0, f.HotCount())
	for _, l := range f.hotLists {
		out = append(out, l...)
	}
	return out
}

// AdvanceIdle advances the cycle counter by n dead cycles. It is the
// fast-forward image of n Step calls on a fabric that provably cannot
// change: no words anywhere and no hot tiles (a hot tile would charge
// an arbitration rotation on the first cycle). Panics if either holds
// work, since skipping it would diverge from a stepped run.
func (f *Fabric) AdvanceIdle(n int64) {
	if n == 0 {
		return
	}
	if n < 0 {
		panic("fabric: AdvanceIdle of negative cycles")
	}
	if !f.Quiescent() || f.HotCount() > 0 {
		panic("fabric: AdvanceIdle on a non-idle fabric")
	}
	f.cycle += n
}

// ApplyReplay applies the outcome of an analytically replayed
// communication phase: the cycle and move counters advance by the
// replay's totals, every router's arbitration counter is set to its
// replayed final value (rr[tile], len = tile count), and the hot set
// is replaced by the replay's final hot set. The fabric must be
// quiescent before and is quiescent after — replays model phases whose
// traffic fully drains — so queue state needs no touching. Callers are
// responsible for the replay being exact; the equivalence tests pin
// that end to end.
func (f *Fabric) ApplyReplay(cycles, moves int64, rr []int64, hot []int) {
	if len(rr) != len(f.routers) {
		panic(fmt.Sprintf("fabric: ApplyReplay rr length %d, want %d", len(rr), len(f.routers)))
	}
	f.setArbitration(rr, hot)
	f.cycle += cycles
	f.moves += moves
}

// RestartArbitration returns the fabric's arbitration to its power-on
// state — every router's rotation counter zero, no tile hot — which is
// what a newly built fabric holds whatever its routes. A machine that
// reloads a program's coefficients calls it, so its next run arbitrates
// as a cold machine's would. The fabric must be quiescent.
func (f *Fabric) RestartArbitration() { f.setArbitration(nil, nil) }

// setArbitration sets every router's rotation counter to rr[tile] (zero
// for a nil rr) and replaces the hot set with hot, on a quiescent
// fabric.
func (f *Fabric) setArbitration(rr []int64, hot []int) {
	if !f.Quiescent() {
		panic("fabric: arbitration set on a non-quiescent fabric")
	}
	for i := range f.routers {
		r := &f.routers[i]
		r.rr, r.rrIdx = 0, 0
		if rr != nil {
			r.rr = rr[i]
		}
		if r.n > 0 {
			r.rrIdx = uint8(r.rr % int64(r.n))
		}
	}
	for s := range f.hotLists {
		for _, ti := range f.hotLists[s] {
			f.hot[ti] = false
		}
		f.hotLists[s] = f.hotLists[s][:0]
	}
	for _, ti := range hot {
		f.markHot(ti)
	}
}
