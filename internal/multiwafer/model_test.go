package multiwafer

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/perfmodel"
	"repro/internal/wse"
)

// TestModelMatchesSimulator pins perfmodel's multi-wafer extension to
// the cycle simulator exactly, phase by phase, across mesh shapes,
// grids (even and uneven splits, odd and even sub-extents) and Z — the
// same both-ways pinning discipline as the AllReduce model, so the
// projection to grids of full wafers cannot silently drift from what
// the simulator would measure. Each shape runs twice: on New's
// fast-forward wafers, whose SpMVs the exchange replay times, and on
// sequential wafers, which cycle-simulate them — so the model is never
// checked only against the replay it drives.
func TestModelMatchesSimulator(t *testing.T) {
	model := perfmodel.SimModel()
	io := perfmodel.DefaultEdgeIO()
	for _, tc := range []struct {
		nx, ny, nz int
		grid       Topology
	}{
		{8, 8, 8, Topology{1, 1}},
		{8, 8, 8, Topology{2, 1}},
		{8, 8, 8, Topology{2, 2}},
		{8, 8, 32, Topology{2, 2}},
		{16, 8, 16, Topology{2, 1}},
		{6, 6, 8, Topology{3, 1}},  // 2-wide wafers
		{10, 6, 8, Topology{3, 2}}, // uneven split: widths 4, 3, 3
		{9, 9, 8, Topology{2, 2}},  // odd sub-extents (parity-aware AllReduce)
		{8, 8, 6, Topology{2, 1}},  // Z ≡ 2 (mod 4): per-instruction lane ceiling
		{12, 12, 24, Topology{4, 1}},
	} {
		for _, engine := range []wse.Engine{wse.EngineFastForward, wse.EngineSequential} {
			const iters = 2
			h, _, b, _ := testProblem(t, tc.nx, tc.ny, tc.nz, 3)
			c, err := build(Config{Grid: tc.grid}, h, engine)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := c.Solve(b, kernels.WSEOptions{MaxIter: iters})
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Iterations != iters || st.Breakdown != "" {
				t.Fatalf("%v grid %v engine %v: expected %d clean iterations, got %+v", tc, tc.grid, engine, iters, st)
			}
			m := model.MultiWaferIterationCycles(tc.nx, tc.ny, tc.nz, tc.grid.W, tc.grid.H, 1.1e9, io)
			want := kernels.PhaseCycles{
				SpMV:      iters * int64(m.SpMV),
				EdgeIO:    iters * int64(m.EdgeIO),
				Dot:       iters * int64(m.Dot),
				AllReduce: iters * int64(m.AllReduce),
				Combine:   iters * int64(m.Combine),
				Axpy:      iters * int64(m.Axpy),
			}
			if st.Cycles != want {
				t.Errorf("%d×%d×%d grid %v engine %v:\n  simulator %+v\n  model     %+v",
					tc.nx, tc.ny, tc.nz, tc.grid, engine, st.Cycles, want)
			}
		}
	}
}

// TestScalingSweepShape sanity-checks the projection sweep the
// examples print: on-wafer cycles shrink with more wafers (smaller
// AllReduce), inter-wafer costs appear, and speedup/efficiency are
// relative to the first grid.
func TestScalingSweepShape(t *testing.T) {
	model := perfmodel.PaperModel()
	pts := model.MultiWaferScaling(600, 595, 1536,
		[][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 2}}, 1.1e9, perfmodel.DefaultEdgeIO())
	if len(pts) != 4 {
		t.Fatalf("want 4 points, got %d", len(pts))
	}
	if pts[0].Speedup != 1 || pts[0].Efficiency != 1 {
		t.Errorf("first point not normalized: %+v", pts[0])
	}
	if pts[0].Breakdown.EdgeIO != 0 || pts[0].Breakdown.Combine != 0 {
		t.Errorf("single wafer charged inter-wafer terms: %+v", pts[0].Breakdown)
	}
	for _, p := range pts[1:] {
		if p.Breakdown.EdgeIO == 0 || p.Breakdown.Combine == 0 {
			t.Errorf("grid %dx%d missing inter-wafer terms", p.GridW, p.GridH)
		}
		if p.Breakdown.AllReduce >= pts[0].Breakdown.AllReduce {
			t.Errorf("grid %dx%d: AllReduce %v not below single wafer %v",
				p.GridW, p.GridH, p.Breakdown.AllReduce, pts[0].Breakdown.AllReduce)
		}
		if p.Efficiency <= 0 || p.Efficiency > 1.2 {
			t.Errorf("grid %dx%d: implausible efficiency %.2f", p.GridW, p.GridH, p.Efficiency)
		}
	}
}
