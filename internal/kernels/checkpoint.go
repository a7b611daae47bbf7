package kernels

import "repro/internal/codec"

// Solver checkpoints: a WSECheckpoint packages a machine snapshot
// (wse.Snapshot, which holds every solver vector in the tile arenas)
// with the BiCGStab scalar recurrence state, so a solve can be
// interrupted, the process restarted, and the solve resumed
// bit-identically — same residual history, same final machine
// Fingerprint — on either stepping engine and any worker count.
// Checkpoints are cut at iteration boundaries, where the machine is
// architecturally idle.

// CheckpointVersion is the current checkpoint format version.
const CheckpointVersion = 1

// checkpointMagic leads every encoded checkpoint ("WSECKPT" + version).
var checkpointMagic = [8]byte{'W', 'S', 'E', 'C', 'K', 'P', 'T', CheckpointVersion}

// WSECheckpoint is the state needed to resume a wafer BiCGStab solve at
// the top of iteration Iter. Stats carries the accumulated cycle counts
// and residual history so the resumed solve's final statistics match
// the uninterrupted solve's (PerIteration is recomputed at finish and
// not serialized).
type WSECheckpoint struct {
	Iter    int
	BNorm   float64
	Rho     float64
	Stats   WSEStats
	Machine []byte // encoded wse.Snapshot
}

// encode serializes the checkpoint in the versioned codec frame.
func (cp *WSECheckpoint) encode() ([]byte, error) {
	e := codec.NewEncoder(checkpointMagic)
	e.U32(uint32(cp.Iter))
	e.F64(cp.BNorm)
	e.F64(cp.Rho)

	st := &cp.Stats
	e.U32(uint32(st.Iterations))
	e.Bool(st.Converged)
	e.U32(uint32(len(st.Breakdown)))
	e.Bytes([]byte(st.Breakdown))
	e.U32(uint32(len(st.History)))
	for _, h := range st.History {
		e.F64(h)
	}
	e.I64(st.Cycles.SpMV)
	e.I64(st.Cycles.Dot)
	e.I64(st.Cycles.AllReduce)
	e.I64(st.Cycles.Axpy)
	e.I64(st.SetupCycles)
	e.F64(st.MaxARDrift)

	e.U32(uint32(len(cp.Machine)))
	e.Bytes(cp.Machine)
	return e.Seal(), nil
}

// DecodeWSECheckpoint parses data produced by encode, verifying magic,
// version and checksum. It never panics on corrupt input.
func DecodeWSECheckpoint(data []byte) (*WSECheckpoint, error) {
	d, err := codec.Open(data, checkpointMagic, "kernels: checkpoint")
	if err != nil {
		return nil, err
	}
	cp := &WSECheckpoint{}
	cp.Iter = int(d.U32())
	cp.BNorm = d.F64()
	cp.Rho = d.F64()
	st := &cp.Stats
	st.Iterations = int(d.U32())
	st.Converged = d.Bool()
	st.Breakdown = string(d.Take(d.Count(1)))
	st.History = make([]float64, d.Count(8))
	for i := range st.History {
		st.History[i] = d.F64()
	}
	st.Cycles.SpMV = d.I64()
	st.Cycles.Dot = d.I64()
	st.Cycles.AllReduce = d.I64()
	st.Cycles.Axpy = d.I64()
	st.SetupCycles = d.I64()
	st.MaxARDrift = d.F64()
	cp.Machine = append([]byte(nil), d.Take(d.Count(1))...)
	if err := d.End(); err != nil {
		return nil, err
	}
	return cp, nil
}
