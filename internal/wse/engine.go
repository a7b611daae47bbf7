package wse

import (
	"flag"
	"fmt"
)

// Engine selects how a Machine steps its cores each cycle. All engines
// are bit- and cycle-identical — same Fingerprint every cycle, same
// counters, same results — so the choice is purely a host-side
// throughput knob; the difftest package and FuzzMachineEquivalence pin
// the contract.
type Engine int

// The stepping engines.
const (
	// EngineAuto resolves to EngineSharded when Config.Workers > 1,
	// otherwise to the -wse.engine flag override if one is set, and
	// EngineFastForward failing that.
	EngineAuto Engine = iota
	// EngineSequential steps every runnable core scalar-style on one
	// goroutine: the reference engine.
	EngineSequential
	// EngineSharded steps a sharded fabric (Config.Workers shards, or
	// fabric.Sharded(0)'s); cores step scalar-style within their shard. It is
	// EngineFastForward without the jumps.
	EngineSharded
	// EngineBatched detects equivalence classes of cores that are about
	// to execute the same instruction shape and runs one decoded
	// operation across all of them per cycle, falling back to scalar
	// stepping the moment a core diverges (pending rx words, threads,
	// non-contiguous operands). See batch.go.
	EngineBatched
	// EngineFastForward is EngineSequential plus exact jumps over
	// statically-timed phases: a phase whose outcome is exactly
	// predictable advances memory through the same element kernels and
	// jumps the cycle counter. Every jump starts from a Settled machine
	// and records itself in the machine's record (CountPhase); between
	// jumps it steps through the reference interpreter, so everything
	// that cannot be proved static is cycle-simulated exactly as under
	// EngineSequential. Its fabric has one shard per P (or CPU, if
	// fewer), but at most one per 64 tiles (fabric.Sharded(0);
	// Config.Workers > 1 sets the count), so the cycles it steps run
	// across the host's cores, and on one shard with no helper goroutine
	// at GOMAXPROCS=1. See VectorPhase (the solver's dot and update
	// phases), stencilc.Program3D (the halo exchange) and
	// kernels.AllReduce.Run (its contention-free row phase and
	// broadcast). The default engine.
	EngineFastForward
)

// String returns the engine's short name, matching ParseEngine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineSequential:
		return "seq"
	case EngineSharded:
		return "sharded"
	case EngineBatched:
		return "batched"
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
	case "seq", "sequential":
		return EngineSequential, nil
	case "sharded":
		return EngineSharded, nil
	case "batched":
		return EngineBatched, nil
	case "fastforward", "ff":
		return EngineFastForward, nil
	}
	return EngineAuto, fmt.Errorf("wse: unknown engine %q (want seq, sharded, batched or fastforward)", s)
}

// engineFlag lets the whole test suite run under a different stepping
// engine (`go test ./... -args -wse.engine=seq`), turning every kernel
// test into an engine-equivalence test. The override applies only to
// machines built with EngineAuto and Workers <= 1, so tests that
// explicitly construct a particular engine (engine-vs-engine
// equivalence tests, sharded paper-scale runs) keep what they asked
// for.
var engineFlag = flag.String("wse.engine", "",
	"override the wse core-stepping engine for EngineAuto machines (seq, batched, fastforward)")

// resolveEngine applies the EngineAuto resolution rule.
func resolveEngine(cfg Config) Engine {
	e := cfg.Engine
	if e != EngineAuto {
		return e
	}
	if cfg.Workers > 1 {
		return EngineSharded
	}
	if *engineFlag != "" {
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
// "seq", "sharded-N", "batched" or "fastforward".
func (m *Machine) EngineName() string {
	if m.engine == EngineSharded {
		return m.Fab.StepperName()
	}
	return m.engine.String()
}
