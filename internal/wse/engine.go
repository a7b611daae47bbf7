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
	// EngineSequential failing that.
	EngineAuto Engine = iota
	// EngineSequential steps every runnable core scalar-style on one
	// goroutine: the reference engine.
	EngineSequential
	// EngineSharded partitions the tile grid across Config.Workers
	// goroutines (the fabric's sharded stepper); cores step scalar-style
	// within their shard.
	EngineSharded
	// EngineBatched detects equivalence classes of cores that are about
	// to execute the same instruction shape and runs one decoded
	// operation across all of them per cycle, falling back to scalar
	// stepping the moment a core diverges (pending rx words, threads,
	// non-contiguous operands). See batch.go.
	EngineBatched
	// EngineFastForward is EngineBatched plus analytic fast-forward of
	// statically-timed phases: compute phases whose cycle count is
	// exactly predictable advance memory through the same element
	// loops and jump the cycle counter, cycle-simulating only phase
	// boundaries. See ff.go, stencilc.Program3D and (for the
	// AllReduce's contention-free row phase) kernels.AllReduce.Run.
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
// engine (`go test ./... -args -wse.engine=batched`), turning every
// kernel test into an engine-equivalence test. The override applies
// only to machines built with EngineAuto and Workers <= 1, so tests
// that explicitly construct a particular engine (engine-vs-engine
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
	return EngineSequential
}

// EngineName reports the resolved stepping engine of this machine:
// "seq", "sharded-N", "batched" or "fastforward".
func (m *Machine) EngineName() string {
	switch m.engine {
	case EngineSharded:
		return m.Fab.StepperName()
	default:
		return m.engine.String()
	}
}

// FastForwardEnabled reports whether this machine runs under
// EngineFastForward, i.e. whether statically-timed phases may be
// advanced analytically (FastForwardTasks, stencilc.Program3D's
// fast-forward path).
func (m *Machine) FastForwardEnabled() bool { return m.engine == EngineFastForward }
