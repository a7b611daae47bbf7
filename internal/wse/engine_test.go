package wse

import (
	"runtime"
	"testing"
)

// TestResolveEngine holds the EngineAuto rule: fast-forward by default
// and whenever Workers > 1, the -wse.engine override otherwise, and an
// explicit engine kept whatever Workers and the override say; "batched"
// parses as sequential.
func TestResolveEngine(t *testing.T) {
	saved := *engineFlag
	defer func() { *engineFlag = saved }()
	for _, tc := range []struct {
		engine   Engine
		workers  int
		override string
		want     Engine
	}{
		{EngineAuto, 0, "", EngineFastForward},
		{EngineAuto, 1, "", EngineFastForward},
		{EngineAuto, 2, "", EngineFastForward},
		{EngineAuto, 0, "seq", EngineSequential},
		{EngineAuto, 1, "seq", EngineSequential},
		{EngineAuto, 1, "batched", EngineSequential},
		{EngineAuto, 1, "auto", EngineFastForward},
		{EngineAuto, 2, "seq", EngineFastForward},
		{EngineSequential, 0, "", EngineSequential},
		{EngineSequential, 0, "fastforward", EngineSequential},
		{EngineSequential, 4, "", EngineSequential},
		{EngineFastForward, 0, "seq", EngineFastForward},
		{EngineFastForward, 2, "seq", EngineFastForward},
	} {
		*engineFlag = tc.override
		if got := resolveEngine(Config{Engine: tc.engine, Workers: tc.workers}); got != tc.want {
			t.Errorf("engine %v, workers %d, -wse.engine=%q: resolved %v, want %v",
				tc.engine, tc.workers, tc.override, got, tc.want)
		}
	}
}

// TestEngineShards holds each engine's fabric shard count: fast-forward
// one per P (or CPU, if fewer), but no more than one per 64 tiles — one,
// with no helper, at GOMAXPROCS=1 — or Workers when Workers > 1, under
// EngineAuto too (whatever -wse.engine says); sequential one.
func TestEngineShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(gmp)
		procs := min(gmp, runtime.NumCPU())
		for _, tc := range []struct {
			engine  Engine
			side    int
			workers int
			want    int
		}{
			{EngineFastForward, 16, 0, min(procs, 4)},
			{EngineFastForward, 16, 1, min(procs, 4)},
			{EngineFastForward, 8, 0, 1},
			{EngineFastForward, 4, 4, 4},
			{EngineAuto, 4, 2, 2},
			{EngineSequential, 16, 4, 1},
		} {
			cfg := CS1(tc.side, tc.side)
			cfg.Engine, cfg.Workers = tc.engine, tc.workers
			m := New(cfg)
			if got := len(m.Fab.ShardRanges()); got != tc.want {
				t.Errorf("GOMAXPROCS=%d, %v on %dx%d with Workers %d: %d shards, want %d", gmp, tc.engine, tc.side, tc.side, tc.workers, got, tc.want)
			}
			m.Close()
		}
	}
}
