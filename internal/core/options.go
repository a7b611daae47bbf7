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
	Cluster
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
	case Cluster:
		return "cluster"
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
	case "cluster":
		return Cluster, nil
	case "multiwafer":
		return MultiWafer, nil
	}
	return 0, fmt.Errorf("core: unknown backend %q (want local, wafer, cluster or multiwafer)", s)
}

// OptionError reports a single invalid or misplaced Options field.
// Field is the dotted path into Options (e.g. "Cluster.Ranks"), so
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
	// Workers selects the simulation engine: <= 1 steps the machine
	// sequentially, > 1 shards the tile grid across that many goroutines
	// on a persistent worker pool (clamped to the tile count; see
	// fabric.Sharded). Simulated results are bit-identical either way.
	Workers int
	// Engine names the core-stepping engine ("seq", "sharded",
	// "batched", "fastforward"; empty means automatic — see
	// wse.EngineAuto). Every engine is bit- and cycle-identical; the
	// batched and fast-forward engines are the host-throughput modes
	// that make paper-scale solves interactive. Mutually exclusive with
	// Workers > 1, which already selects the sharded engine.
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

func (w WaferOptions) isZero() bool {
	return w.Workers == 0 && w.Engine == "" && w.CheckpointEvery == 0 && w.Checkpoint == nil && w.Resume == nil
}

// ClusterOptions configures the Cluster backend (the rank-parallel
// goroutines-as-MPI Joule-style solve).
type ClusterOptions struct {
	// Ranks is the number of goroutine-ranks; 0 means 8.
	Ranks int
}

// MultiWaferOptions configures the MultiWafer backend.
type MultiWaferOptions struct {
	// Grid is the wafer grid; the zero value means a single wafer.
	Grid multiwafer.Topology
	// Workers is the number of simulation workers per wafer machine,
	// with the same semantics as WaferOptions.Workers.
	Workers int
}

func (m MultiWaferOptions) isZero() bool {
	return m.Grid == (multiwafer.Topology{}) && m.Workers == 0
}

// Options configures a solve. The backend-specific knobs live in
// per-backend sections; only the section matching Backend may be set.
// Validate (called by Solve) rejects a section supplied for a backend
// that is not selected, so a misrouted request — Cluster ranks on a
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
	Cluster    ClusterOptions    // Cluster backend only
	MultiWafer MultiWaferOptions // MultiWafer backend only
}

// Validate checks the options in one place, for every caller — the four
// CLIs and the wsesimd daemon all route through it rather than
// re-implementing flag checks. Failures are *OptionError values naming
// the offending field.
func (o Options) Validate() error {
	switch o.Backend {
	case Local, Wafer, Cluster, MultiWafer:
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
	if o.Backend != Cluster && o.Cluster != (ClusterOptions{}) {
		return &OptionError{"Cluster.Ranks", fmt.Sprintf("%s backend does not take goroutine-ranks", o.Backend)}
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
		if o.Wafer.Workers < 0 {
			return &OptionError{"Wafer.Workers", fmt.Sprintf("must be >= 0, got %d", o.Wafer.Workers)}
		}
		if o.Wafer.Engine != "" {
			if _, err := wse.ParseEngine(o.Wafer.Engine); err != nil {
				return &OptionError{"Wafer.Engine", err.Error()}
			}
			if o.Wafer.Workers > 1 {
				return &OptionError{"Wafer.Engine", fmt.Sprintf(
					"Workers = %d already selects the sharded engine; drop one of the two", o.Wafer.Workers)}
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
	case Cluster:
		if o.Cluster.Ranks < 0 {
			return &OptionError{"Cluster.Ranks", fmt.Sprintf("must be >= 0 (0 means 8), got %d", o.Cluster.Ranks)}
		}
	case MultiWafer:
		g := o.MultiWafer.Grid
		if g.W < 0 || g.H < 0 || (g.W == 0) != (g.H == 0) {
			return &OptionError{"MultiWafer.Grid", fmt.Sprintf("grid must be empty (one wafer) or positive in both dimensions, got %dx%d", g.W, g.H)}
		}
		if o.MultiWafer.Workers < 0 {
			return &OptionError{"MultiWafer.Workers", fmt.Sprintf("must be >= 0, got %d", o.MultiWafer.Workers)}
		}
	}
	return nil
}
