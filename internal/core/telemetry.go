package core

import (
	"repro/internal/kernels"
	"repro/internal/multiwafer"
	"repro/internal/solver"
)

// Phases is the simulated cycle account — the paper's kernel classes
// plus the multi-wafer coupling costs — exactly as the solve loop keeps
// it (kernels.PhaseCycles carries the wire names). The single-wafer
// backend leaves EdgeIO and Combine at zero; the host backends leave
// everything at zero (no cycle simulation runs there).
type Phases = kernels.PhaseCycles

// Telemetry is the uniformly serializable instrumentation of a solve.
// Every backend populates it — clients switch on Simulated (or just
// serialize the whole thing) instead of probing backend-specific
// pointers for nil. It is the shape the wsesimd job API returns.
type Telemetry struct {
	// Backend is the substrate name ("local", "wafer", "cluster",
	// "multiwafer").
	Backend string `json:"backend"`
	// Precision names the Local backend's arithmetic; empty elsewhere
	// (the wafer substrates are always mixed fp16/fp32).
	Precision string `json:"precision,omitempty"`
	// Simulated reports whether cycle-level simulation ran; when false
	// the cycle fields are zero.
	Simulated bool `json:"simulated"`
	// Wafers is the number of simulated wafers (1 for the Wafer
	// backend); 0 for host substrates.
	Wafers int `json:"wafers,omitempty"`
	// Ranks is the Cluster backend's goroutine-rank count; 0 elsewhere.
	Ranks int `json:"ranks,omitempty"`
	// Cycles accumulates the per-phase account across all iterations;
	// PerIteration is the mean per iteration. The setup ‖b‖² dot is
	// excluded (see SetupCycles), matching the paper's steady-state
	// accounting.
	Cycles       Phases `json:"cycles"`
	PerIteration Phases `json:"per_iteration"`
	// SetupCycles is the one-time ‖b‖² dot + reduction before the first
	// iteration.
	SetupCycles int64 `json:"setup_cycles,omitempty"`
	// MaxARDrift is the largest observed |fabric AllReduce − exact sum|
	// on any wafer, as a fraction of the paper's AllReduce error-model
	// bound (see kernels.WSEStats.MaxARDrift). A diagnostic of the
	// machine's history, not of the job: a warm machine may report a
	// different value than a cold one for bit-equal X, History and cycles.
	MaxARDrift float64 `json:"max_allreduce_drift,omitempty"`
}

// telemetryFrom is the one constructor of a simulated solve's
// Telemetry: the solve loop's account, verbatim, under the backend's
// name.
func telemetryFrom(b Backend, st kernels.WSEStats) Telemetry {
	return Telemetry{
		Backend:      b.String(),
		Simulated:    true,
		Wafers:       st.Wafers,
		Cycles:       st.Cycles,
		PerIteration: st.PerIteration,
		SetupCycles:  st.SetupCycles,
		MaxARDrift:   st.MaxARDrift,
	}
}

// telemetryOf reads a backend's instrumentation after a solve: the
// simulated backends expose the solve loop's account (LastStats), the
// host ones are described by what they are.
func telemetryOf(be solver.Backend) Telemetry {
	switch be := be.(type) {
	case *multiwafer.Backend:
		return TelemetryFromMultiWafer(be.LastStats())
	case interface{ LastStats() kernels.WSEStats }:
		return TelemetryFromWSE(be.LastStats())
	case solver.Host:
		if p, ok := be.Context.(*solver.ParallelContext); ok {
			return Telemetry{Backend: Cluster.String(), Ranks: p.Ranks()}
		}
		if be.Context != nil {
			return Telemetry{Backend: Local.String(), Precision: be.Context.Name()}
		}
	}
	return Telemetry{Backend: Local.String(), Precision: F64.String()}
}

// TelemetryFromWSE converts a single-wafer solve's stats into the
// uniform Telemetry shape.
func TelemetryFromWSE(st kernels.WSEStats) Telemetry { return telemetryFrom(Wafer, st) }

// TelemetryFromMultiWafer is TelemetryFromWSE for the multi-wafer
// cluster's stats.
func TelemetryFromMultiWafer(st multiwafer.Stats) Telemetry { return telemetryFrom(MultiWafer, st) }
