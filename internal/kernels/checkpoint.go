package kernels

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

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

// encode serializes the checkpoint in the versioned little-endian
// format with a trailing FNV-1a checksum.
func (cp *WSECheckpoint) encode() ([]byte, error) {
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	b = append(b, checkpointMagic[:]...)
	u32(uint32(cp.Iter))
	f64(cp.BNorm)
	f64(cp.Rho)

	st := &cp.Stats
	u32(uint32(st.Iterations))
	if st.Converged {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	u32(uint32(len(st.Breakdown)))
	b = append(b, st.Breakdown...)
	u32(uint32(len(st.History)))
	for _, h := range st.History {
		f64(h)
	}
	i64(st.Cycles.SpMV)
	i64(st.Cycles.Dot)
	i64(st.Cycles.AllReduce)
	i64(st.Cycles.Axpy)
	i64(st.SetupCycles)
	f64(st.MaxARDrift)

	u32(uint32(len(cp.Machine)))
	b = append(b, cp.Machine...)

	h := fnv.New64a()
	h.Write(b)
	return binary.LittleEndian.AppendUint64(b, h.Sum64()), nil
}

// DecodeWSECheckpoint parses data produced by encode, verifying magic,
// version and checksum. It never panics on corrupt input.
func DecodeWSECheckpoint(data []byte) (*WSECheckpoint, error) {
	if len(data) < len(checkpointMagic)+8 {
		return nil, fmt.Errorf("kernels: checkpoint truncated (%d bytes)", len(data))
	}
	for i := 0; i < 7; i++ {
		if data[i] != checkpointMagic[i] {
			return nil, fmt.Errorf("kernels: not a solver checkpoint (bad magic)")
		}
	}
	if v := data[7]; v != CheckpointVersion {
		return nil, fmt.Errorf("kernels: unsupported checkpoint version %d (have %d)", v, CheckpointVersion)
	}
	body, sum := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(sum) {
		return nil, fmt.Errorf("kernels: checkpoint checksum mismatch")
	}

	p := body[len(checkpointMagic):]
	var derr error
	take := func(n int) []byte {
		if derr != nil || n < 0 || n > len(p) {
			if derr == nil {
				derr = fmt.Errorf("kernels: checkpoint truncated mid-field")
			}
			return nil
		}
		v := p[:n]
		p = p[n:]
		return v
	}
	u32 := func() uint32 {
		if v := take(4); v != nil {
			return binary.LittleEndian.Uint32(v)
		}
		return 0
	}
	u64 := func() uint64 {
		if v := take(8); v != nil {
			return binary.LittleEndian.Uint64(v)
		}
		return 0
	}
	i64 := func() int64 { return int64(u64()) }
	f64 := func() float64 { return math.Float64frombits(u64()) }
	count := func(minBytes int) int {
		n := int(u32())
		if derr == nil && (n < 0 || n*minBytes > len(p)) {
			derr = fmt.Errorf("kernels: checkpoint count %d exceeds remaining input", n)
			return 0
		}
		return n
	}

	cp := &WSECheckpoint{}
	cp.Iter = int(u32())
	cp.BNorm = f64()
	cp.Rho = f64()
	st := &cp.Stats
	st.Iterations = int(u32())
	if v := take(1); v != nil {
		st.Converged = v[0] != 0
	}
	st.Breakdown = string(take(count(1)))
	st.History = make([]float64, count(8))
	for i := range st.History {
		st.History[i] = f64()
	}
	st.Cycles.SpMV = i64()
	st.Cycles.Dot = i64()
	st.Cycles.AllReduce = i64()
	st.Cycles.Axpy = i64()
	st.SetupCycles = i64()
	st.MaxARDrift = f64()
	cp.Machine = append([]byte(nil), take(count(1))...)
	if derr != nil {
		return nil, derr
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("kernels: checkpoint has %d trailing bytes", len(p))
	}
	return cp, nil
}
