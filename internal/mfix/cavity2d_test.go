package mfix

import (
	"math"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/wse"
)

func TestCavity2DMassConservation(t *testing.T) {
	c := NewCavity2D(8, 100)
	res, err := c.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res[0].Mass, res[len(res)-1].Mass
	t.Logf("mass imbalance: %.3g -> %.3g", first, last)
	if last > first/3 {
		t.Errorf("mass imbalance did not drop: %g -> %g", first, last)
	}
	if div := c.MassResidual(); div > 5e-4 {
		t.Errorf("post-correction divergence %g too large", div)
	}
}

func TestCavity2DConverges(t *testing.T) {
	c := NewCavity2D(8, 100)
	res, err := c.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	if mom := res[len(res)-1].Momentum; mom > 0.02 {
		t.Errorf("velocity field still changing by %g after 40 SIMPLE iterations", mom)
	}
}

// TestCavity2DCenterlineMatches3DMidplane validates the 2D physics
// against the existing 3D cavity: at matching Re and N the 2D
// centreline u-profile must track the 3D solver's mid-plane profile —
// the flows differ only by the 3D cavity's spanwise confinement, a
// small effect on a coarse grid — and show the standard structure
// (strong positive u under the lid, negative return flow below).
func TestCavity2DCenterlineMatches3DMidplane(t *testing.T) {
	const n, re = 12, 100.0
	c2 := NewCavity2D(n, re)
	if _, err := c2.Run(50); err != nil {
		t.Fatal(err)
	}
	c3 := NewCavity(n, re)
	if _, err := c3.Run(50); err != nil {
		t.Fatal(err)
	}
	p2, p3 := c2.CenterlineU(), c3.CenterlineU()
	if p2[n-1] < 0.5 {
		t.Errorf("2D u under the lid = %g, expected strongly positive", p2[n-1])
	}
	min2 := 0.0
	for _, u := range p2[:n/2] {
		min2 = math.Min(min2, u)
	}
	if min2 > -0.02 || min2 < -0.45 {
		t.Errorf("2D return-flow minimum %g outside the plausible band (-0.45, -0.02)", min2)
	}
	for j := range p2 {
		if d := math.Abs(p2[j] - p3[j]); d > 0.08 {
			t.Errorf("row %d: 2D centreline u %.4f vs 3D mid-plane %.4f (|Δ| = %.3f)", j, p2[j], p3[j], d)
		}
	}
}

// waferLegs are the two wafer pressure paths: the 8² cavity in 2×2
// blocks on a 4×4 fabric (the §IV-2 block-halo mapping) and the 8³
// cavity through Listing 1 on an 8×8 fabric with Z = 8.
var waferLegs = []struct {
	name    string
	cavity  func(n int, re float64) *Cavity
	fabric  int
	backend func(*wse.Machine) *kernels.WaferBackend
}{
	{"2D n=8 b=2", NewCavity2D, 4, func(m *wse.Machine) *kernels.WaferBackend { return kernels.NewWafer2DBackend(m, 2) }},
	{"3D n=8 Listing 1", NewCavity, 8, kernels.NewWafer3DBackend},
}

// TestCavity2DWaferBackendTracksHost runs the same cavity with the
// pressure solve on the cycle-simulated wafer (fp16 BiCGStab) and on
// the host (float64): the SIMPLE convergence must track closely over
// the first sweeps — fp16 rounding compounds slowly through the outer
// iteration, it must not change the physics.
func TestCavity2DWaferBackendTracksHost(t *testing.T) {
	const n, iters = 8, 6
	for _, leg := range waferLegs {
		mach := wse.New(wse.CS1(leg.fabric, leg.fabric))
		be := leg.backend(mach)
		cw := leg.cavity(n, 100)
		cw.Pressure = be
		rw, err := cw.Run(iters)
		mach.Close()
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		rh, err := leg.cavity(n, 100).Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rw {
			ratio := rw[i].Mass / rh[i].Mass
			t.Logf("%s iter %d: wafer mass %.4e, host %.4e (ratio %.3f)", leg.name, i, rw[i].Mass, rh[i].Mass, ratio)
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("%s iter %d: wafer mass residual %g diverged from host %g", leg.name, i, rw[i].Mass, rh[i].Mass)
			}
		}
		if rw[iters-1].Mass > rw[0].Mass/3 {
			t.Errorf("%s: wafer-backend mass imbalance did not drop: %g -> %g", leg.name, rw[0].Mass, rw[iters-1].Mass)
		}
		if be.Solves != iters || be.Iterations != iters*cw.PressureIters {
			t.Errorf("%s instrumentation: %d solves / %d iterations, want %d / %d",
				leg.name, be.Solves, be.Iterations, iters, iters*cw.PressureIters)
		}
		if be.Cycles.Total() == 0 {
			t.Errorf("%s: no cycles measured on the wafer backend", leg.name)
		}
		t.Logf("%s: %d simulated cycles per pressure solve", leg.name, be.Cycles.Total()/int64(be.Solves))
	}
}

// TestCavity2DWaferShardedIdentical is the engine-equivalence contract
// at the application level: the full SIMPLE evolution with the wafer
// pressure backend — residuals, per-solve pressure residual histories,
// and the machine's final architectural fingerprint — must be
// bit-identical on one shard (fast-forward, or sequential under
// -wse.engine=seq) and on four.
func TestCavity2DWaferShardedIdentical(t *testing.T) {
	const n, iters = 8, 4
	for _, leg := range waferLegs {
		run := func(workers int) ([]Residuals, [][]float64, uint64, int) {
			cfg := wse.CS1(leg.fabric, leg.fabric)
			cfg.Workers = workers
			mach := wse.New(cfg)
			defer mach.Close()
			c := leg.cavity(n, 100)
			c.Pressure = leg.backend(mach)
			res, err := c.Run(iters)
			if err != nil {
				t.Fatalf("%s: %v", leg.name, err)
			}
			return res, c.PressureResiduals, mach.Fingerprint(), len(mach.Fab.ShardRanges())
		}
		ra, ha, fa, ea := run(1)
		rb, hb, fb, eb := run(4)
		if ea == eb {
			t.Fatalf("%s: shard selection broken: both on %d shards", leg.name, ea)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: SIMPLE residuals diverge at iter %d: %d shard(s) %+v, %d shards %+v", leg.name, i, ea, ra[i], eb, rb[i])
			}
		}
		if len(ha) != iters || len(ha) != len(hb) {
			t.Fatalf("%s: pressure history counts %d vs %d, want %d", leg.name, len(ha), len(hb), iters)
		}
		for s := range ha {
			for k := range ha[s] {
				if ha[s][k] != hb[s][k] {
					t.Fatalf("%s: pressure solve %d residual %d diverges: %g vs %g", leg.name, s, k, ha[s][k], hb[s][k])
				}
			}
		}
		if fa != fb {
			t.Fatalf("%s: machine fingerprints diverge: %d shard(s) %#x, %d shards %#x", leg.name, ea, fa, eb, fb)
		}
		t.Logf("%s: fingerprint %#x on %d and %d shards", leg.name, fa, ea, eb)
	}
}

// poisonAfter passes its first n solves through unchanged and poisons
// the rest: v replaces the last residual of the history, or the first
// entry of the solution.
type poisonAfter struct {
	solver.Backend
	n      int
	v      float64
	inHist bool
}

func (p *poisonAfter) Solve(a stencil.Operator, b, x0 []float64, opts solver.Options) ([]float64, solver.Stats, error) {
	x, st, err := p.Backend.Solve(a, b, x0, opts)
	if p.n--; p.n < 0 && err == nil {
		if p.inHist {
			st.History[len(st.History)-1] = p.v
		} else {
			x[0] = p.v
		}
	}
	return x, st, err
}

// TestCavityStopsOnNonFiniteSolve pins where a non-finite linear solve
// stops SIMPLE: in the sweep that produced it, with an error naming the
// sweep, the equation and the value — not a sweep later, when the
// poisoned fields have been assembled into an operator the solver then
// rejects as not normalized. The wafer row is the 16² cavity on an 8×8
// fabric (b = 2), whose fp16 pressure solve breaks down in sweep 15
// while the host cavity runs on.
func TestCavityStopsOnNonFiniteSolve(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cavity func(*wse.Machine) *Cavity
		fabric int
		sweeps int    // completed before the failing one
		want   string // error text
	}{
		{"stub pressure NaN residual", func(*wse.Machine) *Cavity {
			c := NewCavity2D(8, 100)
			c.Pressure = &poisonAfter{Backend: solver.Host{}, n: 2, v: math.NaN(), inHist: true}
			return c
		}, 0, 2, "mfix: sweep 3: pressure: non-finite residual NaN at iteration"},
		{"stub momentum Inf solution", func(*wse.Machine) *Cavity {
			c := NewCavity(4, 100)
			c.Momentum = &poisonAfter{Backend: solver.Host{}, n: 4, v: math.Inf(1)}
			return c
		}, 0, 1, "mfix: sweep 2: momentum axis 1: non-finite solution +Inf at unknown 0"},
		{"2D wafer n=16 b=2", func(m *wse.Machine) *Cavity {
			c := NewCavity2D(16, 100)
			c.Pressure = kernels.NewWafer2DBackend(m, 2)
			return c
		}, 8, 14, "mfix: sweep 15: pressure: non-finite residual NaN at iteration"},
	} {
		var m *wse.Machine
		if tc.fabric > 0 {
			m = wse.New(wse.CS1(tc.fabric, tc.fabric))
		}
		res, err := tc.cavity(m).Run(tc.sweeps + 5)
		if m != nil {
			m.Close()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to contain %q", tc.name, err, tc.want)
		}
		if len(res) != tc.sweeps {
			t.Errorf("%s: %d sweeps completed, want %d", tc.name, len(res), tc.sweeps)
		}
		for i, r := range res {
			if math.IsNaN(r.Mass) || math.IsNaN(r.Momentum) {
				t.Errorf("%s: sweep %d returned non-finite residuals %+v", tc.name, i+1, r)
			}
		}
	}
}
