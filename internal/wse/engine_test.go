package wse

import "testing"

// TestResolveEngine holds the EngineAuto rule: fast-forward by default,
// sharded when Workers > 1, the -wse.engine override in between, and an
// explicit engine kept whatever Workers and the override say.
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
		{EngineAuto, 2, "", EngineSharded},
		{EngineAuto, 0, "seq", EngineSequential},
		{EngineAuto, 1, "seq", EngineSequential},
		{EngineAuto, 1, "batched", EngineBatched},
		{EngineAuto, 1, "auto", EngineFastForward},
		{EngineAuto, 2, "seq", EngineSharded},
		{EngineSequential, 0, "", EngineSequential},
		{EngineSequential, 0, "fastforward", EngineSequential},
		{EngineBatched, 4, "", EngineBatched},
		{EngineFastForward, 0, "seq", EngineFastForward},
		{EngineSharded, 2, "seq", EngineSharded},
	} {
		*engineFlag = tc.override
		if got := resolveEngine(Config{Engine: tc.engine, Workers: tc.workers}); got != tc.want {
			t.Errorf("engine %v, workers %d, -wse.engine=%q: resolved %v, want %v",
				tc.engine, tc.workers, tc.override, got, tc.want)
		}
	}
}
