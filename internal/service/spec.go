package service

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/multiwafer"
	"repro/internal/stencil"
)

// JobSpec is the wire-format description of one solve job. It is fully
// deterministic: the spec alone re-creates the operator, the exact
// solution and the right-hand side, so a job can be re-run from its
// spooled spec after a crash and produce bit-identical results — the
// durability story needs no problem-data serialization.
//
// The problem generator is cmd/wsesim's (core.GenerateProblem), so
// `wsesim -problem momentum` and a {"problem":"momentum"} job solve the
// same system.
type JobSpec struct {
	// Problem selects the operator generator: "poisson", "momentum" or
	// "random". Empty means "momentum" (wsesim's default).
	Problem string `json:"problem,omitempty"`
	NX      int    `json:"nx"`
	NY      int    `json:"ny"`
	NZ      int    `json:"nz"`
	// Seed drives the synthetic exact solution x (b = A·x); 0 means
	// core.DefaultSeed, the seed every CLI uses.
	Seed int64 `json:"seed,omitempty"`

	// Backend is "local", "wafer" or "multiwafer". Empty means
	// "wafer" — this is a wafer-simulation service.
	Backend string `json:"backend,omitempty"`
	// MaxIter bounds the iterations; 0 means 200 (core.Solve's default).
	MaxIter int `json:"max_iter,omitempty"`
	// Tol is the relative-residual stop; 0 runs MaxIter iterations.
	Tol float64 `json:"tol,omitempty"`

	// TimeoutMS bounds the job's total lifetime in milliseconds,
	// measured from submission (so it survives daemon restarts): a job
	// whose deadline passes — queued or mid-solve — lands in the
	// terminal "expired" state. 0 means the server's default TTL, or no
	// deadline if none is configured.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// AllowFallback permits the service to solve this job on the host
	// in chunked-mixed precision when the simulated backend's circuit
	// breaker is open. For the multiwafer backend the fallback is
	// bit-identical to the simulated solve (the cross-backend
	// determinism contract); for the single-wafer FIFO engine it is
	// deterministic and equally accurate but may differ in last-place
	// bits. Wafer and multiwafer backends only.
	AllowFallback bool `json:"allow_fallback,omitempty"`

	// Precision is the local backend's arithmetic ("fp64", "fp32",
	// "mixed"); rejected on any other backend.
	Precision string `json:"precision,omitempty"`
	// Workers is a wafer job's fast-forward shard count (0 or 1: one
	// per host core, at most one per 64 tiles), at most core.MaxWorkers.
	// A multiwafer job accepts it under the same bound but its wafers do
	// not read it: each fast-forwards on the default shards.
	Workers int `json:"workers,omitempty"`
	// Grid is the multiwafer backend's wafer grid, "WxH".
	Grid string `json:"grid,omitempty"`
}

// maxMeshCells bounds accepted problem sizes: a full CS-1 fabric's
// 602×595 tiles at the paper's 3D mesh depth. Anything larger is a
// typo or a hostile request, not a reproduction workload.
const maxMeshCells = 602 * 595 * 128

// SpecError reports a single invalid JobSpec field, named by its JSON
// key so API clients can point at the offending request field.
type SpecError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *SpecError) Error() string {
	return fmt.Sprintf("service: invalid job spec field %q: %s", e.Field, e.Reason)
}

// withDefaults returns the spec with empty fields filled in; the
// returned spec is what the service persists and echoes back.
func (s JobSpec) withDefaults() JobSpec {
	if s.Problem == "" {
		s.Problem = "momentum"
	}
	if s.Backend == "" {
		s.Backend = "wafer"
	}
	if s.Seed == 0 {
		s.Seed = core.DefaultSeed
	}
	return s
}

// Options maps the spec to validated core.Options. Misrouted fields —
// workers on a local job, a grid on a wafer job — fail here with a
// *SpecError, before core.Options.Validate runs the backend-level
// checks; together the two validators reject every malformed request
// with a field-precise error.
func (s JobSpec) Options() (core.Options, error) {
	be, err := core.ParseBackend(s.Backend)
	if err != nil {
		return core.Options{}, &SpecError{"backend", err.Error()}
	}
	if s.NX <= 0 || s.NY <= 0 || s.NZ <= 0 {
		return core.Options{}, &SpecError{"nx", fmt.Sprintf("mesh dimensions must be positive, got %dx%dx%d", s.NX, s.NY, s.NZ)}
	}
	// Divided, not multiplied: a product of outside ints can wrap.
	if s.NY > maxMeshCells/s.NX || s.NZ > maxMeshCells/(s.NX*s.NY) {
		return core.Options{}, &SpecError{"nx", fmt.Sprintf("mesh %dx%dx%d has more than %d cells, the service's cap (one full wafer at depth 128)", s.NX, s.NY, s.NZ, maxMeshCells)}
	}
	if err := core.CheckProblemName(s.Problem); err != nil {
		return core.Options{}, &SpecError{"problem", err.Error()}
	}
	if s.Precision != "" && be != core.Local {
		return core.Options{}, &SpecError{"precision", "only the local backend selects a precision (wafer arithmetic is always mixed fp16/fp32)"}
	}
	if s.Workers != 0 && be != core.Wafer && be != core.MultiWafer {
		return core.Options{}, &SpecError{"workers", "simulation workers apply to the wafer and multiwafer backends only"}
	}
	if s.Grid != "" && be != core.MultiWafer {
		return core.Options{}, &SpecError{"grid", "a wafer grid applies to the multiwafer backend only"}
	}
	if s.TimeoutMS < 0 {
		return core.Options{}, &SpecError{"timeout_ms", fmt.Sprintf("must be non-negative, got %d", s.TimeoutMS)}
	}
	if s.AllowFallback && be != core.Wafer && be != core.MultiWafer {
		return core.Options{}, &SpecError{"allow_fallback", "host fallback applies to the wafer and multiwafer backends only"}
	}
	if be == core.Wafer || be == core.MultiWafer {
		if s.NZ%2 != 0 {
			return core.Options{}, &SpecError{"nz", fmt.Sprintf("must be even on simulated backends (fp16 words stream in pairs), got %d", s.NZ)}
		}
	}

	o := core.Options{Backend: be, MaxIter: s.MaxIter, Tol: s.Tol}
	switch be {
	case core.Local:
		if s.Precision != "" {
			p, err := core.ParsePrecision(s.Precision)
			if err != nil {
				return core.Options{}, &SpecError{"precision", err.Error()}
			}
			o.Local.Precision = p
		}
	case core.Wafer:
		o.Wafer.Workers = s.Workers
	case core.MultiWafer:
		if s.Grid != "" {
			g, err := multiwafer.ParseTopology(s.Grid)
			if err != nil {
				return core.Options{}, &SpecError{"grid", err.Error()}
			}
			o.MultiWafer.Grid = g
		}
		o.MultiWafer.Workers = s.Workers
	}
	if err := o.Validate(); err != nil {
		return core.Options{}, err
	}
	return o, nil
}

// Validate checks the spec without building anything.
func (s JobSpec) Validate() error {
	_, err := s.withDefaults().Options()
	return err
}

// BuildProblem materializes the spec's linear system (defaults filled
// in) with the generator cmd/wsesim uses, core.GenerateProblem: the
// named operator, an exact solution synthesized from the seed, and
// b = A·x.
func (s JobSpec) BuildProblem() (core.Problem, error) {
	s = s.withDefaults()
	p, err := core.GenerateProblem(s.Problem, stencil.Mesh{NX: s.NX, NY: s.NY, NZ: s.NZ}, s.Seed)
	if err != nil {
		return core.Problem{}, &SpecError{"problem", err.Error()}
	}
	return p, nil
}
