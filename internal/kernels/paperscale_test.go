package kernels

import (
	"flag"
	"testing"
	"time"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// paperScaleBudget turns on the wall-clock budget of
// TestPaperScaleBiCGStab's 602×595 leg. Off by default: inside a plain
// `go test ./...` the test shares the machine with whatever else runs
// and asserts only what is deterministic; CI's paper-scale step, which
// runs it alone, passes the flag.
var paperScaleBudget = flag.Bool("paperscale.budget", false,
	"fail TestPaperScaleBiCGStab when the 602x595 solve takes 30 s or more")

// paperScaleSolve builds the 3-D heat operator on an nx×ny×nz mesh,
// runs a two-iteration BiCGStab solve on a wafer of the matching fabric
// extent under the given engine, and returns everything the
// paper-scale test pins: the solution bits, the solver stats, and the
// machine's final architectural fingerprint — plus how many of the
// solve's AllReduces jumped and stepped their row phase and their
// broadcast, and the exchange replay's own account (Run calls, cycles
// replayed, cycles jumped; zero under an engine that does not
// fast-forward). It logs how the element steps split between the slice
// path and the descriptor walk (wse.Machine.ElementSteps).
func paperScaleSolve(t testing.TB, nx, ny, nz int, eng wse.Engine) (x []fp16.Float16, st WSEStats, fp uint64, jumps arJumps, replay [3]int64) {
	t.Helper()
	m := wse.New(wse.Config{FabricW: nx, FabricH: ny, Engine: eng})
	defer m.Close()

	mesh := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
	s, err := NewBiCGStabStarWSE(m, stencilc.Spec7Point(), stencil.NewOpStarHalf(norm))
	if err != nil {
		t.Fatal(err)
	}
	bh := make([]fp16.Float16, mesh.N())
	for i := range bh {
		bh[i] = fp16.FromFloat64(float64((i%23)-11) / 28)
	}
	x, st, err = s.Solve(bh, WSEOptions{MaxIter: 2, Tol: 0})
	if err != nil {
		t.Fatal(err)
	}
	sliced, walked := m.ElementSteps()
	t.Logf("%d×%d %s: element steps: %d slice, %d walk", nx, ny, m.EngineName(), sliced, walked)
	if r := s.prog.ExchangeReplay(); r != nil {
		replay[0], replay[1], replay[2] = r.Stats()
	}
	ar := s.eng.parts[0].ar
	return x, st, m.Fingerprint(), arJumps{ar.rowSkips, ar.rowStepped, ar.bcastSkips, ar.bcastStepped}, replay
}

// arJumps is one AllReduce's fast-forward account over a solve.
type arJumps struct{ rowSkips, rowStepped, bcastSkips, bcastStepped int }

// allJumped reports whether every reduction jumped both its row phase
// and its broadcast.
func (j arJumps) allJumped() bool {
	return j.rowSkips > 0 && j.rowStepped == 0 && j.bcastSkips == j.rowSkips && j.bcastStepped == 0
}

// TestPaperScaleBiCGStab runs the paper's headline configuration — a
// full BiCGStab solve of the 3-D heat operator mapped one mesh column
// per PE across the complete 602×595 wafer — inside the ordinary test
// suite, under the hybrid fast-forward engine (wse.EngineFastForward:
// statically-timed compute phases replayed by the perfmodel, memory
// advanced bit-exactly on the host, the AllReduce's contention-free row
// phase and broadcast applied in closed form, and only its column phase
// on the odd height and its 4:1 quad cycle-simulated). That
// it finishes in seconds is the point: the same solve under pure cycle
// simulation takes tens of minutes, which is why paper-scale runs used
// to live only in perfmodel extrapolations. What keeps it in seconds is
// asserted by count — every AllReduce jumped its row phase and its
// broadcast, every SpMV went through the exchange replay, and the
// replay jumped the cycles it
// should — plus the pinned fingerprint and cycle account; the elapsed
// time is always logged and is held to its 30 s budget only under
// -paperscale.budget (CI's paper-scale step), never inside a shared
// `go test ./...`.
//
// The fast-forward engine's contract is bit- and cycle-identity with
// sequential stepping. That is pinned here on two smaller wafers where
// the sequential run is affordable — 60×50, and 60×51, even × odd like
// the paper's 602×595, whose odd height puts arbitration contention
// into the AllReduce's column phase — same solver, same operator
// family, every observable compared: residual history (float64, exact),
// the solution's fp16 bits, the per-phase cycle counters, and the
// machine fingerprint. The wse difftest and stencilc equivalence suites
// pin the same contract per-cycle at instruction granularity.
//
// Skipped in -short mode and under the race detector (see raceEnabled);
// CI executes it in the dedicated non-race paper-scale step.
func TestPaperScaleBiCGStab(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale solve: skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("paper-scale solve: skipped under the race detector")
	}

	// Equivalence legs: fast-forward vs sequential.
	for _, dims := range [][2]int{{60, 50}, {60, 51}} {
		nx, ny := dims[0], dims[1]
		xSeq, stSeq, fpSeq, seqJumps, _ := paperScaleSolve(t, nx, ny, 4, wse.EngineSequential)
		xFF, stFF, fpFF, ffJumps, _ := paperScaleSolve(t, nx, ny, 4, wse.EngineFastForward)
		if len(xSeq) != len(xFF) {
			t.Fatalf("%d×%d: solution lengths differ: seq %d, ff %d", nx, ny, len(xSeq), len(xFF))
		}
		for i := range xSeq {
			if xSeq[i] != xFF[i] {
				t.Fatalf("%d×%d: x[%d] bits diverge: seq %#04x, ff %#04x", nx, ny, i, uint16(xSeq[i]), uint16(xFF[i]))
			}
		}
		if len(stSeq.History) != len(stFF.History) {
			t.Fatalf("%d×%d: history lengths differ: seq %v, ff %v", nx, ny, stSeq.History, stFF.History)
		}
		for i := range stSeq.History {
			if stSeq.History[i] != stFF.History[i] {
				t.Errorf("%d×%d: residual history[%d] diverges: seq %v, ff %v", nx, ny, i, stSeq.History[i], stFF.History[i])
			}
		}
		if stSeq.Cycles != stFF.Cycles || stSeq.SetupCycles != stFF.SetupCycles {
			t.Errorf("%d×%d: cycle counters diverge:\nseq %+v setup %d\nff  %+v setup %d",
				nx, ny, stSeq.Cycles, stSeq.SetupCycles, stFF.Cycles, stFF.SetupCycles)
		}
		if stSeq.Iterations != stFF.Iterations || stSeq.Converged != stFF.Converged {
			t.Errorf("%d×%d: iteration outcomes diverge: seq %d/%v, ff %d/%v",
				nx, ny, stSeq.Iterations, stSeq.Converged, stFF.Iterations, stFF.Converged)
		}
		if fpSeq != fpFF {
			t.Errorf("%d×%d: machine fingerprints diverge: seq %#x, ff %#x", nx, ny, fpSeq, fpFF)
		}
		if seqJumps.rowSkips != 0 || seqJumps.bcastSkips != 0 || !ffJumps.allJumped() {
			t.Errorf("%d×%d: AllReduce jumps seq %+v, ff %+v; want none under seq, every row phase and broadcast under ff",
				nx, ny, seqJumps, ffJumps)
		}
		t.Logf("%d×%d equivalence: hist=%v cycles=%+v fp=%#x allreduce jumps %+v",
			nx, ny, stFF.History, stFF.Cycles, fpFF, ffJumps)
	}

	// Paper-scale leg: the full wafer, fast-forward engine. A lost fast
	// path fails here by count: losing an AllReduce jump shows in its
	// stepped count, a program that falls back to cycle simulation
	// in the replay's Run count, a replay that steps through its compute
	// tasks in its jumped cycles.
	start := time.Now()
	x, st, fp, jumps, replay := paperScaleSolve(t, 602, 595, 4, wse.EngineFastForward)
	elapsed := time.Since(start)
	t.Logf("602×595 solve: %v  iters=%d cycles=%+v setup=%d hist=%v x0=%#04x fp=%#x allreduce jumps %+v",
		elapsed, st.Iterations, st.Cycles, st.SetupCycles, st.History, uint16(x[0]), fp, jumps)
	t.Logf("602×595 exchange replay: %d runs, %d cycles replayed, %d of them jumped", replay[0], replay[1], replay[2])
	if !jumps.allJumped() {
		t.Errorf("AllReduce jumps %+v; every reduction of the 602×595 wafer must jump its row phase and its broadcast", jumps)
	}
	// Four SpMVs (two per iteration) of 17 cycles each; at Z = 4 the
	// replay jumps the two in which no router is hot and every tile
	// sleeps in its compute task.
	if want := [3]int64{4, 4 * 17, 4 * 2}; replay != want {
		t.Errorf("exchange replay runs/cycles/jumped = %v, want %v", replay, want)
	}
	if want := (PhaseCycles{SpMV: 68, Dot: 16, AllReduce: 11976, Axpy: 12}); st.Cycles != want || st.SetupCycles != 1499 {
		t.Errorf("cycles %+v setup %d, want %+v setup 1499", st.Cycles, st.SetupCycles, want)
	}
	if fp != 0x209738842d82bf46 {
		t.Errorf("machine fingerprint %#x, want 0x209738842d82bf46", fp)
	}

	if st.Iterations != 2 || len(st.History) != 2 {
		t.Errorf("expected 2 full iterations with residual history, got %d (%v)", st.Iterations, st.History)
	}
	for i, h := range st.History {
		if !(h > 0) { // catches NaN and a degenerate zero residual alike
			t.Errorf("residual history[%d] = %v, want a positive finite value", i, h)
		}
	}
	// About 3× the measured time on a 2-vCPU Xeon host (10–11 s).
	if *paperScaleBudget && elapsed >= 30*time.Second {
		t.Errorf("paper-scale solve took %v, budget is <30s", elapsed)
	}
}
