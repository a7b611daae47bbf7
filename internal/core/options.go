package core

import (
	"fmt"
	"math"

	"repro/internal/multiwafer"
	"repro/internal/solver"
	"repro/internal/wse"
)

// Precision selects the arithmetic of the Local backend.
type Precision int

// Precisions.
const (
	F64 Precision = iota
	F32
	Mixed // fp16 storage, fp32 dot accumulation — the CS-1 arithmetic
)

// String names the precision.
func (p Precision) String() string {
	switch p {
	case F64:
		return "fp64"
	case F32:
		return "fp32"
	case Mixed:
		return "mixed16/32"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

// ParsePrecision maps the flag/wire names ("fp64", "fp32", "mixed") to a
// precision. It accepts the String() forms too.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "fp64", "f64", "float64":
		return F64, nil
	case "fp32", "f32", "float32":
		return F32, nil
	case "mixed", "mixed16/32":
		return Mixed, nil
	}
	return 0, fmt.Errorf("core: unknown precision %q (want fp64, fp32 or mixed)", s)
}

func (p Precision) context() solver.Context {
	switch p {
	case F64:
		return solver.NewF64()
	case F32:
		return solver.NewF32()
	default:
		return solver.NewMixed()
	}
}

// Backend selects the execution substrate.
type Backend int

// Backends.
const (
	Local Backend = iota
	Wafer
	// MultiWafer runs the mixed-precision solve across a grid of
	// cycle-simulated wafers coupled through the edge-I/O interconnect
	// model (internal/multiwafer). Residual histories are bit-identical
	// across wafer grids.
	MultiWafer
)

// String names the backend; the names double as the wire format of the
// service layer's job specs (see ParseBackend).
func (b Backend) String() string {
	switch b {
	case Local:
		return "local"
	case Wafer:
		return "wafer"
	case MultiWafer:
		return "multiwafer"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend maps the flag/wire names to a backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "local":
		return Local, nil
	case "wafer":
		return Wafer, nil
	case "multiwafer":
		return MultiWafer, nil
	}
	return 0, fmt.Errorf("core: unknown backend %q (want local, wafer or multiwafer)", s)
}

// OptionError reports a single invalid or misplaced Options field.
// Field is the dotted path into Options (e.g. "Wafer.Workers"), so
// callers — the CLIs mapping it back to a flag, the daemon mapping it
// to a request field — can point at exactly what to fix.
type OptionError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("core: invalid Options.%s: %s", e.Field, e.Reason)
}

// LocalOptions configures the Local backend.
type LocalOptions struct {
	// Precision selects the arithmetic; the zero value is F64.
	Precision Precision
}

// WaferOptions configures the Wafer backend (the single-wafer
// cycle-level simulator).
type WaferOptions struct {
	// Workers is fast-forward's shard count: <= 1 builds the fabric with
	// one shard per P (or CPU, if fewer), at most one per 64 tiles; > 1
	// with that many (clamped to the tile count; see fabric.Sharded), at
	// most MaxWorkers. The cycles fast-forward steps run across the
	// shards; simulated results are bit-identical either way.
	Workers int
	// Engine names the core-stepping engine ("seq" or "fastforward";
	// empty means automatic — see wse.EngineAuto: fast-forward). Both
	// are bit- and cycle-identical. Fast-forward, the default, is the
	// sequential reference interpreter plus exact jumps over
	// statically-timed phases, the mode that makes paper-scale solves
	// interactive; "seq" cycle-simulates every phase on one shard, so it
	// does not take Workers > 1.
	Engine string
	// CheckpointEvery and Checkpoint enable crash-recoverable solves:
	// every CheckpointEvery iterations the callback receives an encoded
	// kernels.WSECheckpoint (machine snapshot plus recurrence scalars).
	// Resume restarts a solve from such a blob; the problem and RHS must
	// match the checkpointed solve. Only the Wafer backend has a
	// restorable substrate, so Validate rejects these fields on every
	// other backend.
	CheckpointEvery int
	Checkpoint      func([]byte) error
	Resume          []byte
}

// Shards is the Workers the wafer machine is built with: Workers when
// it asks for sharded stepping (> 1), otherwise 0. Workers 0 and 1
// build the same machine (fast-forward on fabric.Sharded(0)), so callers
// that key machines (the daemon's warm cache) key on Shards, not on
// Workers.
func (w WaferOptions) Shards() int {
	if w.Workers > 1 {
		return w.Workers
	}
	return 0
}

func (w WaferOptions) isZero() bool {
	return w.Workers == 0 && w.Engine == "" && w.CheckpointEvery == 0 && w.Checkpoint == nil && w.Resume == nil
}

// MultiWaferOptions configures the MultiWafer backend.
type MultiWaferOptions struct {
	// Grid is the wafer grid; the zero value means a single wafer.
	Grid multiwafer.Topology
	// Workers is validated like WaferOptions.Workers, but NewBackend
	// does not read it: every wafer it builds fast-forwards on
	// fabric.Sharded(0)'s shards.
	Workers int
}

func (m MultiWaferOptions) isZero() bool {
	return m.Grid == (multiwafer.Topology{}) && m.Workers == 0
}

// Options configures a solve. The backend-specific knobs live in
// per-backend sections; only the section matching Backend may be set.
// Validate (called by Solve) rejects a section supplied for a backend
// that is not selected, so a misrouted request — a wafer grid on a
// Wafer solve, a checkpoint on a Local solve — fails loudly instead of
// being silently ignored.
type Options struct {
	Backend Backend
	// MaxIter bounds the number of iterations; 0 means 200.
	MaxIter int
	// Tol is the convergence threshold on the relative residual; 0
	// disables early exit and runs MaxIter iterations.
	Tol float64

	Local      LocalOptions      // Local backend only
	Wafer      WaferOptions      // Wafer backend only
	MultiWafer MultiWaferOptions // MultiWafer backend only
}

// Validate checks the options in one place, for every caller — the four
// CLIs and the wsesimd daemon all route through it rather than
// re-implementing flag checks. Failures are *OptionError values naming
// the offending field.
func (o Options) Validate() error {
	switch o.Backend {
	case Local, Wafer, MultiWafer:
	default:
		return &OptionError{"Backend", fmt.Sprintf("unknown backend %d", int(o.Backend))}
	}
	if o.MaxIter < 0 {
		return &OptionError{"MaxIter", fmt.Sprintf("must be >= 0 (0 means 200), got %d", o.MaxIter)}
	}
	if o.Tol < 0 || math.IsNaN(o.Tol) {
		return &OptionError{"Tol", fmt.Sprintf("must be >= 0 (0 disables early exit), got %v", o.Tol)}
	}

	// Sections are exclusive to their backend.
	if o.Backend != Local && o.Local != (LocalOptions{}) {
		return &OptionError{"Local", fmt.Sprintf("%s backend does not take Local options (precision is host-only)", o.Backend)}
	}
	if o.Backend != Wafer && !o.Wafer.isZero() {
		return &OptionError{"Wafer", fmt.Sprintf("%s backend does not take Wafer options (simulation workers and checkpoint/resume are single-wafer only)", o.Backend)}
	}
	if o.Backend != MultiWafer && !o.MultiWafer.isZero() {
		return &OptionError{"MultiWafer", fmt.Sprintf("%s backend does not take a wafer grid", o.Backend)}
	}

	switch o.Backend {
	case Local:
		switch o.Local.Precision {
		case F64, F32, Mixed:
		default:
			return &OptionError{"Local.Precision", fmt.Sprintf("unknown precision %d", int(o.Local.Precision))}
		}
	case Wafer:
		if err := checkWorkers("Wafer.Workers", o.Wafer.Workers); err != nil {
			return err
		}
		if o.Wafer.Engine != "" {
			e, err := wse.ParseEngine(o.Wafer.Engine)
			if err != nil {
				return &OptionError{"Wafer.Engine", err.Error()}
			}
			if e == wse.EngineSequential && o.Wafer.Workers > 1 {
				return &OptionError{"Wafer.Engine", fmt.Sprintf(
					"Workers = %d shards fast-forward, and seq steps one shard; drop one of the two", o.Wafer.Workers)}
			}
		}
		if o.Wafer.CheckpointEvery < 0 {
			return &OptionError{"Wafer.CheckpointEvery", fmt.Sprintf("must be >= 0, got %d", o.Wafer.CheckpointEvery)}
		}
		if o.Wafer.CheckpointEvery > 0 && o.Wafer.Checkpoint == nil {
			return &OptionError{"Wafer.Checkpoint", "CheckpointEvery is set but the Checkpoint callback is nil"}
		}
		if o.Wafer.Checkpoint != nil && o.Wafer.CheckpointEvery == 0 {
			return &OptionError{"Wafer.CheckpointEvery", "a Checkpoint callback without CheckpointEvery > 0 would never fire"}
		}
	case MultiWafer:
		g := o.MultiWafer.Grid
		if g.W < 0 || g.H < 0 || (g.W == 0) != (g.H == 0) {
			return &OptionError{"MultiWafer.Grid", fmt.Sprintf("grid must be empty (one wafer) or positive in both dimensions, got %dx%d", g.W, g.H)}
		}
		if err := checkWorkers("MultiWafer.Workers", o.MultiWafer.Workers); err != nil {
			return err
		}
	}
	return nil
}

// MaxWorkers caps the Workers options. A fabric's shard bookkeeping
// grows with the square of its shard count (a push list per pair of
// shards; fabric.Sharded), so an outside value could ask for gigabytes
// before a cycle steps. Workers <= 1 already takes one shard per core.
const MaxWorkers = 256

func checkWorkers(field string, n int) error {
	if n < 0 || n > MaxWorkers {
		return &OptionError{field, fmt.Sprintf("must be in [0, %d], got %d", MaxWorkers, n)}
	}
	return nil
}
