package fabric

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fp16"
)

func TestPortOpposite(t *testing.T) {
	for _, p := range []Port{North, East, South, West} {
		if p.Opposite().Opposite() != p {
			t.Errorf("Opposite not involutive for %v", p)
		}
		dx, dy := p.Delta()
		ox, oy := p.Opposite().Delta()
		if dx != -ox || dy != -oy {
			t.Errorf("Delta of %v and its opposite do not cancel", p)
		}
	}
}

func TestWordPacking(t *testing.T) {
	f := func(a, b uint16) bool {
		lo, hi := fp16.FromBits(a), fp16.FromBits(b)
		w := PackF16(3, lo, hi)
		gl, gh := w.UnpackF16()
		return gl == lo && gh == hi && w.Color == 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	w := WordF32(1, 3.25)
	if w.F32() != 3.25 {
		t.Errorf("WordF32 round-trip = %g", w.F32())
	}
}

// buildEastPath routes color c from tile (0,y) eastward to (last,y)'s core.
func buildEastPath(f *Fabric, y int, c Color) {
	last := f.W - 1
	f.SetRoute(Coord{0, y}, Ramp, c, Mask(East))
	for x := 1; x < last; x++ {
		f.SetRoute(Coord{x, y}, West, c, Mask(East))
	}
	f.SetRoute(Coord{last, y}, West, c, Mask(Ramp))
}

func TestSingleWordLatency(t *testing.T) {
	// One hop per cycle: a word crossing d links plus the final ramp
	// delivery arrives after d+1 cycles.
	f := New(Config{W: 8, H: 1})
	buildEastPath(f, 0, 0)
	if !f.Send(Coord{0, 0}, WordF32(0, 42)) {
		t.Fatal("send failed")
	}
	dst := Coord{7, 0}
	cycles := 0
	for {
		if _, ok := f.Recv(dst, 0); ok {
			break
		}
		f.Step()
		cycles++
		if cycles > 100 {
			t.Fatal("word never arrived")
		}
	}
	// 7 link hops + 1 ramp hop = 8 cycles.
	if cycles != 8 {
		t.Errorf("latency = %d cycles, want 8 (one per hop)", cycles)
	}
}

func TestStreamThroughput(t *testing.T) {
	// After pipeline fill, a stream delivers one word per cycle.
	f := New(Config{W: 5, H: 1})
	buildEastPath(f, 0, 0)
	src, dst := Coord{0, 0}, Coord{4, 0}
	const n = 32
	sent, recvd := 0, 0
	var firstArrival, lastArrival int64
	for cycles := 0; cycles < 500 && recvd < n; cycles++ {
		if sent < n && f.Send(src, WordF32(0, float32(sent))) {
			sent++
		}
		f.Step()
		if w, ok := f.Recv(dst, 0); ok {
			if w.F32() != float32(recvd) {
				t.Fatalf("out-of-order delivery: got %g, want %d", w.F32(), recvd)
			}
			if recvd == 0 {
				firstArrival = f.Cycle()
			}
			lastArrival = f.Cycle()
			recvd++
		}
	}
	if recvd != n {
		t.Fatalf("only %d/%d words arrived", recvd, n)
	}
	span := lastArrival - firstArrival
	if span != n-1 {
		t.Errorf("delivery span = %d cycles for %d words, want %d (1/cycle)", span, n, n-1)
	}
}

func TestMulticastFanout(t *testing.T) {
	// A single injected word fans out to all four neighbours' cores.
	f := New(Config{W: 3, H: 3})
	c := Color(2)
	ctr := Coord{1, 1}
	f.SetRoute(ctr, Ramp, c, Mask(North, East, South, West))
	for _, p := range []Port{North, East, South, West} {
		dx, dy := p.Delta()
		nb := Coord{ctr.X + dx, ctr.Y + dy}
		f.SetRoute(nb, p.Opposite(), c, Mask(Ramp))
	}
	if !f.Send(ctr, WordF32(c, 7)) {
		t.Fatal("send failed")
	}
	for i := 0; i < 5; i++ {
		f.Step()
	}
	for _, p := range []Port{North, East, South, West} {
		dx, dy := p.Delta()
		nb := Coord{ctr.X + dx, ctr.Y + dy}
		w, ok := f.Recv(nb, c)
		if !ok || w.F32() != 7 {
			t.Errorf("neighbour %v did not receive multicast copy", nb)
		}
	}
	if !f.Quiescent() {
		t.Error("fabric should be quiescent after delivery")
	}
}

func TestParallelLinks(t *testing.T) {
	// Two crossing streams on different colors share a router: both move
	// every cycle because the router serves all five links in parallel.
	f := New(Config{W: 3, H: 3})
	// East-bound stream through (1,1) on color 0 (row y=1).
	f.SetRoute(Coord{0, 1}, Ramp, 0, Mask(East))
	f.SetRoute(Coord{1, 1}, West, 0, Mask(East))
	f.SetRoute(Coord{2, 1}, West, 0, Mask(Ramp))
	// South-bound stream through (1,1) on color 1 (column x=1).
	f.SetRoute(Coord{1, 0}, Ramp, 1, Mask(South))
	f.SetRoute(Coord{1, 1}, North, 1, Mask(South))
	f.SetRoute(Coord{1, 2}, North, 1, Mask(Ramp))

	const n = 16
	se, ss, re, rs := 0, 0, 0, 0
	for cycles := 0; cycles < 200 && (re < n || rs < n); cycles++ {
		if se < n && f.Send(Coord{0, 1}, WordF32(0, float32(se))) {
			se++
		}
		if ss < n && f.Send(Coord{1, 0}, WordF32(1, float32(ss))) {
			ss++
		}
		f.Step()
		if _, ok := f.Recv(Coord{2, 1}, 0); ok {
			re++
		}
		if _, ok := f.Recv(Coord{1, 2}, 1); ok {
			rs++
		}
	}
	if re != n || rs != n {
		t.Fatalf("crossing streams lost words: %d, %d of %d", re, rs, n)
	}
	// Total cycle count must be close to n + pipeline depth, not 2n: the
	// streams really ran concurrently.
	if f.Cycle() > int64(n+12) {
		t.Errorf("crossing streams serialized: %d cycles for %d words", f.Cycle(), n)
	}
}

func TestBackpressureLossless(t *testing.T) {
	// A fast sender into a slow receiver must not lose or reorder words.
	f := New(Config{W: 4, H: 1, QueueDepth: 2, RxDepth: 1})
	buildEastPath(f, 0, 0)
	src, dst := Coord{0, 0}, Coord{3, 0}
	const n = 24
	sent, got := 0, 0
	for cycles := 0; cycles < 1000 && got < n; cycles++ {
		if sent < n && f.Send(src, WordF32(0, float32(sent))) {
			sent++
		}
		f.Step()
		// Receiver drains only every third cycle.
		if cycles%3 == 0 {
			if w, ok := f.Recv(dst, 0); ok {
				if w.F32() != float32(got) {
					t.Fatalf("reorder/loss: got %g want %d", w.F32(), got)
				}
				got++
			}
		}
	}
	if got != n {
		t.Fatalf("received %d/%d", got, n)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A cyclic route with depth-1 queues and no exit deadlocks; Drain
	// must detect it rather than spin forever.
	f := New(Config{W: 2, H: 2, QueueDepth: 1})
	c := Color(0)
	// Ring: (0,0) -> E -> (1,0) -> S -> (1,1) -> W -> (0,1) -> N -> (0,0).
	f.SetRoute(Coord{0, 0}, Ramp, c, Mask(East))
	f.SetRoute(Coord{1, 0}, Ramp, c, Mask(South))
	f.SetRoute(Coord{1, 1}, Ramp, c, Mask(West))
	f.SetRoute(Coord{0, 1}, Ramp, c, Mask(North))
	f.SetRoute(Coord{1, 0}, West, c, Mask(South))
	f.SetRoute(Coord{1, 1}, North, c, Mask(West))
	f.SetRoute(Coord{0, 1}, East, c, Mask(North))
	f.SetRoute(Coord{0, 0}, South, c, Mask(East))
	// Fill the ring: inject from all four ramps for several cycles.
	for i := 0; i < 4; i++ {
		f.Send(Coord{0, 0}, WordF32(c, 1))
		f.Send(Coord{1, 0}, WordF32(c, 1))
		f.Send(Coord{1, 1}, WordF32(c, 1))
		f.Send(Coord{0, 1}, WordF32(c, 1))
		f.Step()
	}
	_, drained := f.Drain(10000)
	if drained {
		t.Error("cyclic full ring should deadlock, but Drain reported success")
	}
}

func TestUnroutedColorPanics(t *testing.T) {
	f := New(Config{W: 2, H: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for send on unrouted color")
		}
	}()
	f.Send(Coord{0, 0}, WordF32(5, 1))
}

// TestEmptyRouteConfiguresNothing pins both halves of an empty-mask
// SetRoute on a (port, color) with no route. It configures nothing: no
// entry, no queue, no route. And a neighbour's route into that pair
// fails at its first word with the "no route configured" panic, instead
// of parking the word in a queue no entry claims — where Quiescent would
// not see it and Fingerprint would.
func TestEmptyRouteConfiguresNothing(t *testing.T) {
	f := New(Config{W: 2, H: 1})
	sink := Coord{1, 0}
	f.SetRoute(sink, West, 3, 0)
	if len(f.EntryLayout(nil, f.Index(sink))) != 0 || f.Route(sink, West, 3) != 0 ||
		f.inputQueue(f.Index(sink), West, 3) >= 0 || len(f.qs) != 0 {
		t.Fatalf("an empty route configured something: entries %v, %d queues", f.EntryLayout(nil, f.Index(sink)), len(f.qs))
	}

	f.SetRoute(Coord{0, 0}, Ramp, 3, Mask(East))
	if !f.Send(Coord{0, 0}, WordF32(3, 1)) {
		t.Fatal("send failed")
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "no route configured at (1,0) for arrivals on (W,3)") {
			t.Fatalf("a word routed into the empty pair: recovered %v, want the no-route panic", r)
		}
	}()
	f.Step()
	t.Fatalf("the word moved on (quiescent %v, fingerprint %#x)", f.Quiescent(), f.Fingerprint())
}

// TestRxQueueHandleLifetime pins what a receive-buffer handle survives:
// a RestoreState (the handle reads the restored words), routes added
// afterwards that outgrow the slabs, and a restore into a fabric that
// never stepped, whose filled buffer must hand out a handle.
func TestRxQueueHandleLifetime(t *testing.T) {
	build := func() *Fabric {
		f := New(Config{W: 3, H: 1})
		buildEastPath(f, 0, 2)
		return f
	}
	f := build()
	sink := f.Index(Coord{2, 0})
	if f.RxQueueOf(sink, 2).Valid() {
		t.Fatal("a handle on a buffer no word has reached")
	}
	for i := 1; i <= 2; i++ {
		f.Send(Coord{0, 0}, WordF32(2, float32(i)))
		f.Step()
	}
	for f.RxLen(Coord{2, 0}, 2) < 2 {
		f.Step()
	}
	h := f.RxQueueOf(sink, 2)
	full := f.CaptureState()
	if w := h.Pop(); math.Float32frombits(w) != 1 || h.Len() != 1 {
		t.Fatalf("handle popped %v, %d left", math.Float32frombits(w), h.Len())
	}
	if err := f.RestoreState(full); err != nil {
		t.Fatal(err)
	}
	for c := Color(3); c < MaxColors; c++ {
		for _, in := range []Port{North, South, Ramp} {
			f.SetRoute(Coord{1, 0}, in, c, Mask(Ramp))
		}
	}
	if h.Len() != 2 || math.Float32frombits(h.Pop()) != 1 {
		t.Fatal("the handle does not read the restored buffer")
	}

	fresh := build()
	if err := fresh.RestoreState(full); err != nil {
		t.Fatal(err)
	}
	if h := fresh.RxQueueOf(sink, 2); !h.Valid() || h.Len() != 2 {
		t.Fatalf("restored buffer: handle valid %v", h.Valid())
	}
}

func TestQuiescentDrain(t *testing.T) {
	f := New(Config{W: 6, H: 1})
	buildEastPath(f, 0, 3)
	if !f.Quiescent() {
		t.Error("empty fabric should be quiescent")
	}
	f.Send(Coord{0, 0}, WordF32(3, 1))
	n, ok := f.Drain(100)
	if !ok {
		t.Fatal("drain failed")
	}
	if n == 0 || n > 10 {
		t.Errorf("drain took %d cycles, want ~6", n)
	}
	if _, got := f.Recv(Coord{5, 0}, 3); !got {
		t.Error("word missing after drain")
	}
}

// TestRxDeliveryCallback pins the rx-wake event edge: registered
// callbacks fire exactly when a word is committed into a core receive
// buffer — once per delivered word, with the destination tile index,
// on both the single-output fast path and the multicast path.
func TestRxDeliveryCallback(t *testing.T) {
	f := New(Config{W: 4, H: 1})
	buildEastPath(f, 0, 3) // color 3: (0,0) → (3,0), single-output hops
	// Multicast: color 5 fans out from (1,0) to its own ramp and east
	// to (2,0)'s ramp.
	f.SetRoute(Coord{1, 0}, Ramp, 5, Mask(Ramp, East))
	f.SetRoute(Coord{2, 0}, West, 5, Mask(Ramp))

	var got []int
	colors := map[int]Color{}
	f.OnRxDelivery(func(tile int, c Color) {
		got = append(got, tile)
		colors[tile] = c
	})
	if s := f.ShardOf(3); s != 0 {
		t.Fatalf("ShardOf(3) = %d on a sequential fabric, want 0", s)
	}

	f.Send(Coord{0, 0}, WordF32(3, 1))
	f.Send(Coord{1, 0}, WordF32(5, 2))
	for i := 0; i < 8; i++ {
		f.Step()
	}
	want := map[int]int{3: 1, 1: 1, 2: 1} // tile index → delivery count
	counts := map[int]int{}
	for _, ti := range got {
		counts[ti]++
	}
	if len(got) != 3 || counts[3] != want[3] || counts[1] != want[1] || counts[2] != want[2] {
		t.Errorf("rx callbacks = %v, want one delivery each at tiles 1, 2, 3", got)
	}
	if colors[3] != 3 || colors[1] != 5 || colors[2] != 5 {
		t.Errorf("rx callback colors = %v, want color 3 at tile 3 and color 5 at tiles 1, 2", colors)
	}
}

// quiescentByWalk is the reference for Quiescent: every configured
// route entry's queue, router by router, ignoring the occupancy masks.
func quiescentByWalk(f *Fabric) bool {
	for i := range f.routers {
		for _, en := range f.entries(i) {
			if f.qs[en.q].size != 0 {
				return false
			}
		}
	}
	return true
}

// TestQuiescentMatchesEntryWalk pins the occupancy-mask Quiescent
// against the full entry walk through every way queue contents change
// — Send, Step, Drain, RestoreState — on a fabric that has one router
// with more than 64 entries (no mask: still walked).
func TestQuiescentMatchesEntryWalk(t *testing.T) {
	f := trafficFabric(6, 5, Sequential())
	wideAt := Coord{2, 2}
	for c := Color(5); c < MaxColors; c++ {
		for _, in := range []Port{North, East, South, West} {
			f.SetRoute(wideAt, in, c, Mask(Ramp))
		}
	}
	f.SetRoute(wideAt, Ramp, 10, Mask(Ramp)) // loop-back: a way to put a word in the wide router
	if r := &f.routers[f.Index(wideAt)]; !r.wide || r.n <= 64 {
		t.Fatalf("tile %v has %d entries, wide=%v; the test needs a wide router", wideAt, r.n, r.wide)
	}
	check := func(when string) {
		t.Helper()
		if got, want := f.Quiescent(), quiescentByWalk(f); got != want {
			t.Fatalf("%s (cycle %d): Quiescent = %v, entry walk says %v", when, f.Cycle(), got, want)
		}
	}
	check("fresh")

	// The only word anywhere sits in the wide router.
	if !f.Send(wideAt, WordF32(10, 1)) {
		t.Fatal("send into the wide router failed")
	}
	check("word in the wide router")
	if f.Quiescent() {
		t.Fatal("Quiescent missed a word held by a wide router")
	}
	f.Step()
	check("wide router delivered")
	if !f.Quiescent() {
		t.Fatal("fabric should be quiescent once the loop-back word reached its core")
	}

	rng := rand.New(rand.NewSource(11))
	var mid *State
	for cyc := 0; cyc < 60; cyc++ {
		if cyc%7 == 0 {
			f.Send(wideAt, WordF32(10, float32(cyc)))
			check("after send")
		}
		driveCycle(f, rng)
		f.Recv(wideAt, 10)
		check("after step")
		if cyc == 30 {
			mid = f.CaptureState()
		}
	}
	if f.Quiescent() {
		t.Fatal("saturating traffic left the fabric quiescent; the test would prove nothing")
	}
	for drained := false; !drained; {
		// Empty the sinks between bursts or the flows back up for good.
		for i := 0; i < f.W*f.H; i++ {
			for _, c := range []Color{0, 1, 2, 3, 4, 10} {
				for ok := true; ok; {
					_, ok = f.Recv(f.CoordOf(i), c)
				}
			}
		}
		_, drained = f.Drain(4)
		check("draining")
		if f.Cycle() > 10000 {
			t.Fatal("fabric did not drain")
		}
	}
	if err := f.RestoreState(mid); err != nil {
		t.Fatal(err)
	}
	check("restored mid-traffic state")
	if f.Quiescent() {
		t.Fatal("restored mid-traffic state reads quiescent")
	}
	if err := f.RestoreState(New(Config{W: 6, H: 5}).CaptureState()); err != nil {
		t.Fatal(err)
	}
	check("restored empty state")
	if !f.Quiescent() {
		t.Fatal("restored empty state is not quiescent")
	}
}
