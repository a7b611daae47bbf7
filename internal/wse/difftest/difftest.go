// Package difftest is the differential test layer over the wse
// stepping engines. Both engines — sequential (the reference) and
// fast-forward, on one shard or several — promise bit- and
// cycle-identical architectural state, and this package checks the
// promise the strongest way the simulator allows: one machine per
// engine runs the same workload and the complete architectural
// fingerprint (Machine.Fingerprint: scheduler flags, pcs, thread
// slots, stream buffers, tile memories, fabric queues and rotations)
// is compared after every single cycle, so a divergence is caught at
// the exact cycle it first appears rather than smeared into a final
// wrong answer.
//
// The fast-forward engine steps through the sequential reference
// interpreter here — its analytic phase jumps only fire inside
// Program3D.Run and kernels.AllReduce.Run, which the lockstep harness
// deliberately bypasses by arming programs (Begin, for the AllReduce)
// and stepping cycle by cycle. The jumps themselves are differentially
// tested at their only observable boundary, the phase end: TestRunEndState
// on solve-like sequences and FuzzJumpMatchesStep from hostile starting
// states — same results, cycles and fingerprint as a sequential Run.
//
// The harness and its tables live in the package's test files: no
// binary imports this package.
package difftest
