package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/wse"
)

// arHotColor is a color the AllReduce (colors 0–5 in these tests) does
// not use, for the loop-back routes that leave chosen routers hot.
const arHotColor fabric.Color = 20

// heatRouters leaves the router of every tile in at hot on a quiescent
// fabric: a word sent down a ramp→ramp loop-back route is delivered on
// the first Drain cycle, and the router stays marked until a later
// cycle visits it with nothing to move — the state a preceding phase's
// last deliveries leave behind.
func heatRouters(t *testing.T, m *wse.Machine, at []fabric.Coord) {
	t.Helper()
	for _, c := range at {
		m.Fab.SetRoute(c, fabric.Ramp, arHotColor, fabric.Mask(fabric.Ramp))
		if !m.Fab.Send(c, fabric.WordF32(arHotColor, 1)) {
			t.Fatalf("loop-back send at %v failed", c)
		}
	}
	if _, ok := m.Fab.Drain(16); !ok {
		t.Fatal("loop-back words did not drain")
	}
	hot := map[int]bool{}
	for _, ti := range m.Fab.HotTiles() {
		hot[ti] = true
	}
	for _, c := range at {
		if !hot[m.Fab.Index(c)] {
			t.Fatalf("router %v is not hot after its loop-back delivery", c)
		}
	}
}

// arPair is a sequential and a fast-forward machine of one shape with
// an AllReduce each, driven with identical inputs.
type arPair struct {
	seq, ff     *wse.Machine
	arSeq, arFF *AllReduce
}

func newARPair(t *testing.T, w, h int, tweak func(*wse.Config)) *arPair {
	t.Helper()
	build := func(e wse.Engine) (*wse.Machine, *AllReduce) {
		cfg := wse.CS1(w, h)
		cfg.Engine = e
		if tweak != nil {
			tweak(&cfg)
		}
		m := wse.New(cfg)
		t.Cleanup(m.Close)
		ar, err := NewAllReduce(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m, ar
	}
	p := &arPair{}
	p.seq, p.arSeq = build(wse.EngineSequential)
	p.ff, p.arFF = build(wse.EngineFastForward)
	return p
}

// run performs one reduction of vals on both machines and fails on any
// observable difference: sum, latency, every tile's broadcast copy, and
// the complete machine fingerprint (fabric cycle and move counters,
// every rotation counter, every queue and receive buffer).
func (p *arPair) run(t *testing.T, vals []float32, when string) {
	t.Helper()
	rs, err := p.arSeq.Run(vals, 1<<20)
	if err != nil {
		t.Fatalf("%s: sequential: %v", when, err)
	}
	rf, err := p.arFF.Run(vals, 1<<20)
	if err != nil {
		t.Fatalf("%s: fast-forward: %v", when, err)
	}
	if rs.Sum != rf.Sum || rs.Cycles != rf.Cycles {
		t.Fatalf("%s: seq sum %v in %d cycles, ff sum %v in %d cycles", when, rs.Sum, rs.Cycles, rf.Sum, rf.Cycles)
	}
	for i := range rs.PerTile {
		if rs.PerTile[i] != rf.PerTile[i] {
			t.Fatalf("%s: tile %d holds %v under seq, %v under ff", when, i, rs.PerTile[i], rf.PerTile[i])
		}
	}
	if a, b := p.seq.Fingerprint(), p.ff.Fingerprint(); a != b {
		t.Fatalf("%s: machine fingerprints diverge: seq %#x, ff %#x (moves %d vs %d)",
			when, a, b, p.seq.Fab.Moves(), p.ff.Fab.Moves())
	}
	// Hot marks are not hashed, but the next phase's rotation counters
	// depend on them.
	if a, b := p.seq.Fab.HotCount(), p.ff.Fab.HotCount(); a != b {
		t.Fatalf("%s: hot sets diverge: seq %d tiles, ff %d", when, a, b)
	}
}

func arValues(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float32, n)
	for i := range vals {
		// Wide dynamic range, so a wrong summation order changes bits.
		vals[i] = float32(rng.NormFloat64() * float64(int(1)<<uint(rng.Intn(12))))
	}
	return vals
}

// TestAllReduceDigestGolden pins everything a reduction leaves behind —
// the sum's bits, the latency, every tile's broadcast copy, the machine
// fingerprint, the hot-router count and the fabric's move counter, over
// three back-to-back reductions at base colour 4 — to digests recorded
// from the hand-written actors (role flags and mirrored broadcast
// routes) before the lowered schedule replaced them. Every engine must
// land on its shape's one digest: the fast-forward row skip and the
// pending lists of a sharded fabric are invisible here.
func TestAllReduceDigestGolden(t *testing.T) {
	shapes := []struct {
		w, h   int
		digest uint64
	}{
		{1, 1, 0x4c6225b3e4072494}, {1, 2, 0x8841ad0a4d1f7602}, {2, 1, 0x3aae43f3303407e},
		{2, 2, 0x71aedebc021c2648}, {1, 9, 0x8d9e3978427fbab9}, {8, 1, 0xf85e8b94293a051e},
		{4, 2, 0xd5a8b69cbf6bef56}, {2, 6, 0x2840a0e36e7d9248}, {6, 2, 0x9cf932d910e03bd2},
		{2, 5, 0x7e673ffb37374596}, {3, 3, 0x1355ef63dfa8a79b}, {5, 4, 0x60c04f9a76cd6181},
		{4, 5, 0x1c9d91cb7a674e9}, {7, 5, 0x4b16e01e3c6d1bb3}, {8, 8, 0x5c0af07b8b222b4a},
		{9, 9, 0x174f785065f539c0}, {17, 16, 0xc887f6168e8b3eeb}, {16, 17, 0xf91883b0b10e1249},
		{33, 24, 0xfba7f3a0101b37a6}, {32, 25, 0x482b3e943dc75624}, {30, 31, 0xda49fa7248b5f155},
		{102, 95, 0xe0edf893e3f4643c},
	}
	for _, sh := range shapes {
		for _, e := range []struct {
			wse.Engine
			shards int
		}{{wse.EngineSequential, 0}, {wse.EngineFastForward, 0}, {wse.EngineFastForward, 3}} {
			cfg := wse.CS1(sh.w, sh.h)
			cfg.Engine, cfg.Workers = e.Engine, e.shards
			m := wse.New(cfg)
			if e.shards > 1 {
				fabric.ForceParallel(m.Fab)
			}
			ar, err := NewAllReduce(m, 4)
			if err != nil {
				t.Fatal(err)
			}
			d := newFNV()
			for rep := 0; rep < 3; rep++ {
				res, err := ar.Run(arValues(sh.w*sh.h, int64(sh.w*1000+sh.h*10+rep)), 1<<20)
				if err != nil {
					t.Fatalf("%dx%d %v/%d: %v", sh.w, sh.h, e.Engine, e.shards, err)
				}
				per := newFNV()
				for _, v := range res.PerTile {
					per.mix(uint64(math.Float32bits(v)))
				}
				for _, v := range []uint64{uint64(math.Float32bits(res.Sum)), uint64(res.Cycles), uint64(per),
					m.Fingerprint(), uint64(m.Fab.HotCount()), uint64(m.Fab.Moves())} {
					d.mix(v)
				}
			}
			m.Close()
			if uint64(d) != sh.digest {
				t.Errorf("%dx%d %v/%d: digest %#x, want %#x", sh.w, sh.h, e.Engine, e.shards, uint64(d), sh.digest)
			}
		}
	}
}

// TestAllReduceRowSkipExact pins the fast-forward engine's closed-form
// row phase against sequential cycle stepping: every observable of the
// reduction and the machine fingerprint, after one and after three
// back-to-back reductions, from a cold fabric and from starts with
// leftover-hot routers in a center column, outside it, and both. The
// even-width shapes must take the jump on every reduction and the
// others never — a silent fall-back would make this test vacuous, a
// jump on an uncovered shape would make it fail.
func TestAllReduceRowSkipExact(t *testing.T) {
	shapes := []struct {
		w, h int
		skip bool
	}{
		{102, 95, true}, {8, 7, true}, {12, 9, true}, {4, 4, true}, {4, 3, true}, {6, 2, true},
		{10, 8, true}, {16, 5, true}, {4, 1, true}, {30, 31, true},
		{5, 4, false}, {7, 5, false}, {2, 6, false},
	}
	for _, sh := range shapes {
		w, h := sh.w, sh.h
		cx0, cx1 := (w-1)/2, w/2
		starts := []struct {
			name string
			hot  []fabric.Coord
		}{
			{"cold", nil},
			{"hot-center", []fabric.Coord{{X: cx0, Y: 0}, {X: cx1, Y: h - 1}}},
			{"hot-outside", []fabric.Coord{{X: 0, Y: h / 2}, {X: w - 1, Y: 0}}},
			{"hot-both", []fabric.Coord{{X: cx1, Y: h / 2}, {X: cx0, Y: h - 1}, {X: 0, Y: 0}, {X: w - 1, Y: h - 1}}},
		}
		for _, st := range starts {
			t.Run(fmt.Sprintf("%dx%d/%s", w, h, st.name), func(t *testing.T) {
				p := newARPair(t, w, h, nil)
				heatRouters(t, p.seq, st.hot)
				heatRouters(t, p.ff, st.hot)
				for rep := 0; rep < 3; rep++ {
					p.run(t, arValues(w*h, int64(w*1000+h*10+rep)), fmt.Sprintf("reduction %d", rep+1))
				}
				wantSkips := 0
				if sh.skip {
					wantSkips = 3
				}
				if r := p.ff.Phases(wse.PhaseRow); r.Jumped != wantSkips || r.Stepped != 3-wantSkips {
					t.Errorf("fast-forward machine: %d row phases jumped, %d stepped; want %d and %d",
						r.Jumped, r.Stepped, wantSkips, 3-wantSkips)
				}
				if r := p.seq.Phases(wse.PhaseRow); r.Jumped != 0 {
					t.Errorf("sequential machine jumped %d row phases", r.Jumped)
				}
			})
		}
	}
}

// arRecord is m's record of AllReduce phases: row phases jumped and
// stepped, then broadcasts jumped and stepped.
func arRecord(m *wse.Machine) [4]int {
	row, bcast := m.Phases(wse.PhaseRow), m.Phases(wse.PhaseBroadcast)
	return [4]int{row.Jumped, row.Stepped, bcast.Jumped, bcast.Stepped}
}

// ffJumps is the fast-forward machine's AllReduce record.
func (p *arPair) ffJumps() [4]int { return arRecord(p.ff) }

// TestAllReduceRowSkipGate walks the rejections of the gate the row skip
// and the broadcast jump share: each start the closed forms do not cover
// must fall back to the stepping loop for both phases — and still agree
// with sequential stepping bit for bit — while the jumps come back as
// soon as the condition clears.
func TestAllReduceRowSkipGate(t *testing.T) {
	const w, h = 8, 5
	vals := arValues(w*h, 5)

	t.Run("engines", func(t *testing.T) {
		for _, tc := range []struct {
			e      wse.Engine
			shards int
			want   [4]int
		}{
			{wse.EngineSequential, 0, [4]int{0, 1, 0, 1}},
			{wse.EngineFastForward, 3, [4]int{1, 0, 1, 0}},
		} {
			cfg := wse.CS1(w, h)
			cfg.Engine, cfg.Workers = tc.e, tc.shards
			m := wse.New(cfg)
			defer m.Close()
			if tc.shards > 1 {
				fabric.ForceParallel(m.Fab)
			}
			ar, err := NewAllReduce(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ar.Run(vals, 1<<20); err != nil {
				t.Fatal(err)
			}
			if got := arRecord(m); got != tc.want {
				t.Errorf("%v/%d: row phases %d jumped, %d stepped; broadcasts %d jumped, %d stepped; want %v (only fast-forward jumps, on any shard count)",
					tc.e, tc.shards, got[0], got[1], got[2], got[3], tc.want)
			}
		}
	})

	t.Run("queue-depth", func(t *testing.T) {
		for _, tweak := range []func(*wse.Config){
			func(c *wse.Config) { c.QueueDepth = 2 },
			func(c *wse.Config) { c.RxDepth = 8 },
		} {
			p := newARPair(t, w, h, tweak)
			p.run(t, vals, "non-default depth")
			if got := p.ffJumps(); got != [4]int{0, 1, 0, 1} {
				t.Errorf("non-default queue depths %+v: jumps %v, want both phases stepped", p.ff.Cfg, got)
			}
		}
	})

	t.Run("non-quiescent", func(t *testing.T) {
		// A word still crossing the fabric on another color when the
		// reduction begins: step it, then jump again once it has landed.
		p := newARPair(t, w, h, nil)
		for _, m := range []*wse.Machine{p.seq, p.ff} {
			m.Fab.SetRoute(fabric.Coord{X: 0, Y: 0}, fabric.Ramp, arHotColor, fabric.Mask(fabric.East))
			for x := 1; x < w-1; x++ {
				m.Fab.SetRoute(fabric.Coord{X: x, Y: 0}, fabric.West, arHotColor, fabric.Mask(fabric.East))
			}
			m.Fab.SetRoute(fabric.Coord{X: w - 1, Y: 0}, fabric.West, arHotColor, fabric.Mask(fabric.Ramp))
			m.Fab.Send(fabric.Coord{X: 0, Y: 0}, fabric.WordF32(arHotColor, 3))
		}
		p.run(t, vals, "word in flight")
		if got := p.ffJumps(); got != [4]int{0, 1, 0, 1} {
			t.Errorf("word in flight: jumps %v, want both phases stepped", got)
		}
		p.run(t, vals, "word landed")
		if got := p.ffJumps(); got != [4]int{1, 1, 1, 1} {
			t.Errorf("quiescent again: jumps %v, want both jumps back", got)
		}
	})

	t.Run("word-on-broadcast-link", func(t *testing.T) {
		// A word circling forever through four routers, across the link
		// (1,0)→(0,0) the broadcast also takes westward: it is there when
		// the root sends, keeps those routers hot every cycle and contends
		// for that output with the red word.
		p := newARPair(t, w, h, nil)
		for _, m := range []*wse.Machine{p.seq, p.ff} {
			for _, r := range []struct {
				x, y int
				in   fabric.Port
				out  fabric.Port
			}{
				{1, 0, fabric.Ramp, fabric.West}, {0, 0, fabric.East, fabric.South},
				{0, 1, fabric.North, fabric.East}, {1, 1, fabric.West, fabric.North}, {1, 0, fabric.South, fabric.West},
			} {
				m.Fab.SetRoute(fabric.Coord{X: r.x, Y: r.y}, r.in, arHotColor, fabric.Mask(r.out))
			}
			m.Fab.Send(fabric.Coord{X: 1, Y: 0}, fabric.WordF32(arHotColor, 7))
		}
		for rep := 0; rep < 2; rep++ {
			p.run(t, vals, fmt.Sprintf("circling word, reduction %d", rep+1))
		}
		if got := p.ffJumps(); got != [4]int{0, 2, 0, 2} {
			t.Errorf("circling word: jumps %v, want both phases stepped", got)
		}
	})

	t.Run("stale-rx", func(t *testing.T) {
		// An abandoned reduction (Begin and a few cycles, never finished)
		// leaves AllReduce words behind in receive buffers once the
		// fabric drains; the next Run must not jump over them. Abandoned
		// after one Tick it leaves blue words at the center columns;
		// abandoned once the root has sent, red words at every tile that
		// never took its copy.
		for _, abandon := range []string{"first Tick", "root's send"} {
			p := newARPair(t, w, h, nil)
			for _, ar := range []*AllReduce{p.arSeq, p.arFF} {
				if err := ar.Begin(vals); err != nil {
					t.Fatal(err)
				}
				ar.Tick()
				if abandon == "root's send" {
					for !ar.tiles[ar.root].sent {
						ar.F.Step()
						ar.Tick()
					}
				}
				if _, ok := ar.F.Drain(64); !ok {
					t.Fatal("abandoned reduction did not drain")
				}
			}
			if !p.ff.Fab.Quiescent() {
				t.Fatal("fabric not quiescent")
			}
			if p.arFF.ffGate() {
				t.Errorf("abandoned after the %s: gate accepts a start with AllReduce words waiting", abandon)
			}
			p.run(t, vals, "after the abandoned reduction")
			if got := p.ffJumps(); got != [4]int{0, 1, 0, 1} {
				t.Errorf("abandoned after the %s: jumps %v, want both phases stepped", abandon, got)
			}
		}
	})

	t.Run("budget", func(t *testing.T) {
		// A cycle budget that ends inside the row phase: same error as
		// stepping, no jump past the budget.
		p := newARPair(t, w, h, nil)
		_, errSeq := p.arSeq.Run(vals, 3)
		_, errFF := p.arFF.Run(vals, 3)
		if errSeq == nil || errFF == nil {
			t.Fatalf("a 3-cycle budget must fail: seq %v, ff %v", errSeq, errFF)
		}
		if p.ff.Phases(wse.PhaseRow).Jumped != 0 {
			t.Error("jumped past the cycle budget")
		}
		if a, b := p.seq.Fingerprint(), p.ff.Fingerprint(); a != b {
			t.Errorf("fingerprints diverge after the over-budget runs: seq %#x, ff %#x", a, b)
		}
		// A budget that ends after the row phase but before the result:
		// the jump fires and the run gives up on the same cycle.
		p = newARPair(t, w, h, nil)
		_, errSeq = p.arSeq.Run(vals, 6)
		_, errFF = p.arFF.Run(vals, 6)
		if jumped := p.ff.Phases(wse.PhaseRow).Jumped; errSeq == nil || errFF == nil || jumped != 1 {
			t.Fatalf("a 6-cycle budget must jump and then fail: seq %v, ff %v, %d jumped", errSeq, errFF, jumped)
		}
		if a, b := p.seq.Fingerprint(), p.ff.Fingerprint(); a != b {
			t.Errorf("fingerprints diverge after the 6-cycle runs: seq %#x, ff %#x", a, b)
		}
	})

	t.Run("budget-broadcast", func(t *testing.T) {
		// Budgets that end inside the broadcast and on its last cycle: the
		// broadcast steps and fails where stepping fails; one cycle more
		// and it jumps.
		res, err := newARPair(t, w, h, nil).arSeq.Run(vals, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{res.Cycles - 3, res.Cycles, res.Cycles + 1} {
			p := newARPair(t, w, h, nil)
			_, errSeq := p.arSeq.Run(vals, budget)
			_, errFF := p.arFF.Run(vals, budget)
			if (errSeq == nil) != (budget > res.Cycles) || (errFF == nil) != (errSeq == nil) {
				t.Fatalf("%d-cycle budget for a %d-cycle reduction: seq %v, ff %v", budget, res.Cycles, errSeq, errFF)
			}
			want := [4]int{1, 0, 0, 1}
			if errFF == nil {
				want = [4]int{1, 0, 1, 0}
			}
			if got := p.ffJumps(); got != want {
				t.Errorf("%d-cycle budget: jumps %v, want %v", budget, got, want)
			}
			if a, b := p.seq.Fingerprint(), p.ff.Fingerprint(); a != b {
				t.Errorf("%d-cycle budget: fingerprints diverge: seq %#x, ff %#x", budget, a, b)
			}
			if a, b := p.seq.Fab.HotCount(), p.ff.Fab.HotCount(); a != b {
				t.Errorf("%d-cycle budget: hot sets diverge: seq %d tiles, ff %d", budget, a, b)
			}
		}
	})
}

// TestAllReduceBroadcastSkipExact pins the fast-forward engine's
// closed-form broadcast against sequential cycle stepping, as
// TestAllReduceRowSkipExact does the row phase: every observable of the
// reduction, the machine fingerprint and the hot count after each of
// three back-to-back reductions, from a cold fabric and from starts with
// leftover-hot routers at the root's column, away from it, and both. The
// shapes are the row skip's plus the degenerate and odd ones; every
// broadcast must jump under fast-forward and none under sequential.
func TestAllReduceBroadcastSkipExact(t *testing.T) {
	shapes := [][2]int{
		{102, 95}, {8, 7}, {12, 9}, {4, 4}, {4, 3}, {6, 2}, {10, 8}, {16, 5}, {4, 1}, {30, 31},
		{5, 4}, {7, 5}, {2, 6}, {1, 1}, {1, 9}, {8, 1}, {9, 9},
	}
	for _, sh := range shapes {
		w, h := sh[0], sh[1]
		cx0, cx1 := (w-1)/2, w/2
		starts := []struct {
			name string
			hot  []fabric.Coord
		}{
			{"cold", nil},
			{"hot-center", []fabric.Coord{{X: cx0, Y: 0}, {X: cx1, Y: h - 1}}},
			{"hot-outside", []fabric.Coord{{X: 0, Y: h / 2}, {X: w - 1, Y: 0}}},
			{"hot-both", []fabric.Coord{{X: cx1, Y: h / 2}, {X: cx0, Y: h - 1}, {X: 0, Y: 0}, {X: w - 1, Y: h - 1}}},
		}
		for _, st := range starts {
			t.Run(fmt.Sprintf("%dx%d/%s", w, h, st.name), func(t *testing.T) {
				// On a one-wide fabric the corners coincide; heat each once,
				// or the second word keeps the others' delivery cycle apart.
				var hot []fabric.Coord
				for _, c := range st.hot {
					if !slices.Contains(hot, c) {
						hot = append(hot, c)
					}
				}
				p := newARPair(t, w, h, nil)
				heatRouters(t, p.seq, hot)
				heatRouters(t, p.ff, hot)
				for rep := 0; rep < 3; rep++ {
					p.run(t, arValues(w*h, int64(w*1000+h*10+rep)), fmt.Sprintf("reduction %d", rep+1))
				}
				if b := p.ff.Phases(wse.PhaseBroadcast); b.Jumped != 3 || b.Stepped != 0 {
					t.Errorf("fast-forward machine: %d broadcasts jumped, %d stepped; want 3 and 0", b.Jumped, b.Stepped)
				}
				if b := p.seq.Phases(wse.PhaseBroadcast); b.Jumped != 0 || b.Stepped != 3 {
					t.Errorf("sequential machine: %d broadcasts jumped, %d stepped; want 0 and 3", b.Jumped, b.Stepped)
				}
			})
		}
	}
}
