package wse

import (
	"flag"
	"fmt"
)

// Engine selects how a Machine steps its cores each cycle. Both engines
// are bit- and cycle-identical — same Fingerprint every cycle, same
// counters, same results — so the choice is purely a host-side
// throughput knob; TestCoreStepLockstep and the difftest package pin
// the contract.
type Engine int

// The stepping engines.
const (
	// EngineAuto resolves to the -wse.engine flag override when one is
	// set and Config.Workers <= 1, and to EngineFastForward otherwise.
	EngineAuto Engine = iota
	// EngineSequential steps every runnable core scalar-style on one
	// goroutine: the reference engine, and the specification every jump
	// is checked against.
	EngineSequential
	// EngineFastForward is EngineSequential plus exact jumps over
	// statically-timed phases: a phase whose outcome is exactly
	// predictable advances memory through the same element kernels and
	// jumps the cycle counter. Every jump starts from a Settled machine
	// and records itself in the machine's record (CountPhase); between
	// jumps it steps through the reference interpreter, so everything
	// that cannot be proved static is cycle-simulated exactly as under
	// EngineSequential. Its fabric has Config.Workers shards when
	// Workers > 1, otherwise one per P (or CPU, if fewer) but at most one
	// per 64 tiles (fabric.Sharded(0)), so the cycles it steps run
	// across the host's cores, and on one shard with no helper goroutine
	// at GOMAXPROCS=1. See VectorPhase (the solver's dot and update
	// phases), stencilc.Program3D (the halo exchange) and
	// kernels.AllReduce.Run (its contention-free row phase and
	// broadcast). The default engine.
	EngineFastForward
)

// EngineBatched is EngineSequential under an old name, kept with
// ParseEngine's "batched" only because the benchmark ladder's batched
// rows still name it.
//
// Deprecated: use EngineSequential; it goes with those rows.
const EngineBatched = EngineSequential

// String returns the engine's short name, matching ParseEngine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineSequential:
		return "seq"
	case EngineFastForward:
		return "fastforward"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine parses a short engine name as accepted by the -wse.engine
// flag and cmd/wsesim's -engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto", "":
		return EngineAuto, nil
	case "seq", "sequential", "batched":
		return EngineSequential, nil
	case "fastforward", "ff":
		return EngineFastForward, nil
	}
	return EngineAuto, fmt.Errorf("wse: unknown engine %q (want seq or fastforward)", s)
}

// engineFlag lets the whole test suite run under the sequential engine
// (`go test ./... -args -wse.engine=seq`), turning every kernel test
// into an engine-equivalence test. The override applies only to
// machines built with EngineAuto and Workers <= 1, so tests that
// explicitly construct a particular engine or shard count
// (engine-vs-engine equivalence tests, sharded paper-scale runs) keep
// what they asked for.
var engineFlag = flag.String("wse.engine", "",
	"override the wse core-stepping engine for EngineAuto machines (seq, fastforward)")

// resolveEngine applies the EngineAuto resolution rule.
func resolveEngine(cfg Config) Engine {
	e := cfg.Engine
	if e != EngineAuto {
		return e
	}
	if *engineFlag != "" && cfg.Workers <= 1 {
		o, err := ParseEngine(*engineFlag)
		if err != nil {
			panic(err)
		}
		if o != EngineAuto {
			return o
		}
	}
	return EngineFastForward
}

// EngineName reports the resolved stepping engine of this machine:
// "seq" or "fastforward".
func (m *Machine) EngineName() string { return m.engine.String() }
