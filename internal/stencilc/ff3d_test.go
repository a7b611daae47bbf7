package stencilc

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/tensor"
	"repro/internal/wse"
)

// ffCase is one compiled program the fast-forward tests below run: a
// spec and operator on a fabric covering the extent (x0, y0, fw, fh) of
// the operator's mesh.
type ffCase struct {
	name           string
	spec           Spec
	op             *stencil.OpStarHalf
	x0, y0, fw, fh int
}

// ffCases are a whole-mesh Heat3D program (Σy² fused), a width-4
// seismic program (four relay rounds) and a placed sub-mesh program
// whose off-fabric halos the host fills.
func ffCases() []ffCase {
	heat := stencil.Mesh{NX: 5, NY: 4, NZ: 8}
	heatNorm, _ := stencil.Heat3D(heat, 0.1, stencil.Dirichlet).Normalize()
	seis := stencil.Mesh{NX: 9, NY: 7, NZ: 10}
	seisNorm, _ := stencil.Seismic25(seis, 0.08).Normalize()
	placed := stencil.Mesh{NX: 7, NY: 6, NZ: 6}
	return []ffCase{
		{"heat3d whole mesh", SpecHeat3D(), stencil.NewOpStarHalf(heatNorm), 0, 0, 5, 4},
		{"seismic25 width 4", SpecSeismic25(), stencil.NewOpStarHalf(seisNorm), 0, 0, 9, 7},
		{"placed sub-mesh", Spec7Point(), randomStarHalf(placed, [3]int{1, 1, 1}, rand.New(rand.NewSource(37))), 2, 2, 3, 2},
	}
}

// build compiles the case on a fresh machine under engine and runs one
// warm-up application with a generous budget — the first application
// after compilation always cycle-simulates (compilation leaves cores
// queued) — then loads a second, different iterate and its edge halos,
// so the next Run is the first one fast-forward may jump. rng draws the
// iterates of any later applications.
func (c ffCase) build(engine wse.Engine) (mach *wse.Machine, p *Program3D, rng *rand.Rand, err error) {
	cfg := wse.CS1(c.fw, c.fh)
	cfg.Engine = engine
	mach = wse.New(cfg)
	if p, err = Compile3D(mach, c.spec, c.op, c.x0, c.y0, 0); err == nil {
		rng = rand.New(rand.NewSource(41))
		fillWafer(p, randomHalfVec(c.op.M.N(), rng))
		if _, err = p.Run(1 << 30); err == nil {
			fillWafer(p, randomHalfVec(c.op.M.N(), rng))
			return mach, p, rng, nil
		}
	}
	mach.Close()
	return nil, nil, nil, err
}

// runApps builds the case under engine and runs apps applications on
// fresh iterates, calling between(mach, app) after each; it returns the final
// state and how often the exchange replay ran.
func (c ffCase) runApps(engine wse.Engine, apps int, between func(mach *wse.Machine, app int)) (ffState, int64, error) {
	mach, p, rng, err := c.build(engine)
	if err != nil {
		return ffState{}, 0, err
	}
	defer mach.Close()
	var cycles int64
	for app := 0; app < apps; app++ {
		if app > 0 {
			fillWafer(p, randomHalfVec(c.op.M.N(), rng))
		}
		cyc, err := p.Run(1 << 30)
		if err != nil {
			return ffState{}, 0, err
		}
		cycles += cyc
		if between != nil {
			between(mach, app)
		}
	}
	var runs int64
	if r := p.ExchangeReplay(); r != nil {
		runs, _, _ = r.Stats()
	}
	return captureFF(p, cycles, nil), runs, nil
}

// ffState is what an application leaves behind that the tests compare:
// Run's return, the machine's cycle and fingerprint, every tile's arena
// word for word and the fused partials.
type ffState struct {
	cycles   int64
	err      string
	cycle    int64
	fp       uint64
	arenas   [][]fp16.Float16
	partials []float32
}

func captureFF(p *Program3D, cycles int64, err error) ffState {
	s := ffState{cycles: cycles, cycle: p.M.Cycle(), fp: p.M.Fingerprint(), partials: slices.Clone(p.Partials())}
	if err != nil {
		s.err = err.Error()
	}
	for _, tl := range p.M.Tiles {
		s.arenas = append(s.arenas, slices.Clone(tl.Arena.Slice(0, tl.Arena.Used()/tensor.BytesPerWord)))
	}
	return s
}

func (s ffState) diff(t *testing.T, want ffState) {
	t.Helper()
	if s.err != want.err || s.cycles != want.cycles {
		t.Errorf("Run: (%d, %q), want (%d, %q)", s.cycles, s.err, want.cycles, want.err)
	}
	if s.cycle != want.cycle {
		t.Errorf("Cycle: %d, want %d", s.cycle, want.cycle)
	}
	if s.fp != want.fp {
		t.Errorf("Fingerprint: %#x, want %#x", s.fp, want.fp)
	}
	for ti := range want.arenas {
		for w := range want.arenas[ti] {
			if s.arenas[ti][w] != want.arenas[ti][w] {
				t.Errorf("tile %d arena word %d: %04x, want %04x", ti, w, s.arenas[ti][w].Bits(), want.arenas[ti][w].Bits())
				break
			}
		}
	}
	for i := range want.partials {
		if math.Float32bits(s.partials[i]) != math.Float32bits(want.partials[i]) {
			t.Errorf("partial %d: %v, want %v", i, s.partials[i], want.partials[i])
		}
	}
}

// TestFastForwardOverBudgetMatchesSequential pins the exchange replay's
// rejection path: an application whose replayed cycle count exceeds
// Run's budget must leave exactly the state a cycle-simulated run out
// of budget leaves — same error, cycle, fingerprint, arenas and
// partials — because fast-forward then falls back to stepping from the
// state it was handed. Budgets one below the application and a third
// of it (mid-exchange, where halo columns the stepped relay has not yet
// reached still hold the previous application's copies) are rejected;
// the control row's exact budget takes the jump.
func TestFastForwardOverBudgetMatchesSequential(t *testing.T) {
	for _, c := range ffCases() {
		t.Run(c.name, func(t *testing.T) {
			seq, _, err := c.runApps(wse.EngineSequential, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			need := seq.cycles
			for _, b := range []struct {
				name   string
				budget int64
				jump   bool
			}{
				{"one below", need - 1, false},
				{"a third", need / 3, false},
				{"enough", need, true},
			} {
				t.Run(b.name, func(t *testing.T) {
					var runs, steps int64
					run := func(engine wse.Engine) ffState {
						mach, p, _, err := c.build(engine)
						if err != nil {
							t.Fatal(err)
						}
						defer mach.Close()
						before := mach.IssueStats().CoreSteps
						cycles, err := p.Run(b.budget)
						steps = mach.IssueStats().CoreSteps - before
						if r := p.ExchangeReplay(); r != nil {
							runs, _, _ = r.Stats()
						}
						return captureFF(p, cycles, err)
					}
					seq := run(wse.EngineSequential)
					ff := run(wse.EngineFastForward)
					if (seq.err == "") != b.jump {
						t.Fatalf("sequential run with budget %d of %d: error %q", b.budget, need, seq.err)
					}
					ff.diff(t, seq)
					// The replay ran once, for the measured application; a
					// taken jump stepped no core.
					if runs != 1 {
						t.Errorf("exchange replay ran %d times, want 1", runs)
					}
					if b.jump != (steps == 0) {
						t.Errorf("jump %v, but the measured application stepped %d cores", b.jump, steps)
					}
				})
			}
		})
	}
}

// TestFastForwardConcurrentMachines runs four fast-forward machines from
// four goroutines at once — the daemon's default of four workers, which
// reach this path through multiwafer jobs — each with its own helper
// goroutine, and holds each to a serial run of the same program.
func TestFastForwardConcurrentMachines(t *testing.T) {
	const apps = 3
	cases := ffCases()
	var serial [4]ffState
	for i := range serial {
		var err error
		if serial[i], _, err = cases[i%len(cases)].runApps(wse.EngineFastForward, apps, nil); err != nil {
			t.Fatal(err)
		}
	}
	var got [4]ffState
	var runs [4]int64
	var errs [4]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], runs[i], errs[i] = cases[i%len(cases)].runApps(wse.EngineFastForward, apps, nil)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("machine %d: %v", i, errs[i])
		}
		if runs[i] != apps {
			t.Errorf("machine %d: exchange replay ran %d times, want %d", i, runs[i], apps)
		}
		got[i].diff(t, serial[i])
	}
}

// settledGoroutines forces garbage collection until the goroutine count
// stops changing, so helpers left behind by earlier tests (reclaimed
// asynchronously by their runtime cleanups) cannot skew a baseline.
func settledGoroutines() int {
	prev := -1
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == prev {
			return n
		}
		prev = n
	}
	return prev
}

// awaitGoroutines waits up to five seconds, collecting garbage, for the
// goroutine count to fall to want, and returns the last count.
func awaitGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	got := runtime.NumGoroutine()
	for got > want && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	return got
}

// TestFastForwardCloseBetweenApplications closes a fast-forward machine
// after its first jumped application: the fabric's helpers — one per
// shard beyond the first, up to GOMAXPROCS, which stepped its cycles
// and took the overlapped half — exit, the count returns to its
// baseline, and the later applications still jump — the two halves
// inline — and end where a machine never closed ends.
func TestFastForwardCloseBetweenApplications(t *testing.T) {
	const apps = 3
	c := ffCases()[1]
	want, _, err := c.runApps(wse.EngineFastForward, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := settledGoroutines()
	got, runs, err := c.runApps(wse.EngineFastForward, apps, func(mach *wse.Machine, app int) {
		if app != 0 {
			return
		}
		helpers := min(len(mach.Fab.ShardRanges()), runtime.GOMAXPROCS(0)) - 1
		if g := runtime.NumGoroutine(); g != base+helpers {
			t.Errorf("after a jumped application: %d goroutines, baseline %d, want the %d helpers more", g, base, helpers)
		}
		mach.Close()
		if g := awaitGoroutines(base); g != base {
			t.Errorf("after Close: %d goroutines, baseline %d", g, base)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != apps {
		t.Errorf("exchange replay ran %d times, want %d", runs, apps)
	}
	got.diff(t, want)
}

// abandonFastForward runs two jumped applications and drops every
// reference to the machine. Kept noinline so no stack slot in the
// caller can keep it reachable.
//
//go:noinline
func abandonFastForward(c ffCase) error {
	mach, p, _, err := c.build(wse.EngineFastForward)
	if err != nil {
		return err
	}
	if _, err := p.Run(1 << 30); err != nil {
		return err
	}
	if r := p.ExchangeReplay(); r == nil {
		return fmt.Errorf("no exchange replay")
	}
	_ = mach
	return nil
}

// TestFastForwardHelperReclaimedWithoutClose pins "the helper never pins
// its machine": a fast-forward machine dropped without Close becomes
// unreachable, its runtime cleanup fires and the helper exits.
func TestFastForwardHelperReclaimedWithoutClose(t *testing.T) {
	base := settledGoroutines()
	if err := abandonFastForward(ffCases()[0]); err != nil {
		t.Fatal(err)
	}
	if g := awaitGoroutines(base); g != base {
		t.Fatalf("abandoned machine's helper was not reclaimed: %d goroutines, baseline %d — the helper pins the machine", g, base)
	}
}
