package wse

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

// FuzzMachineEquivalence fuzzes the worklist scheduler's equivalence
// contract at machine level, mirroring the fabric's FuzzRouterDelivery:
// a randomized program of task graphs (activate/block/unblock chains on
// completion), background threads, fabric sends and stream consumers is
// built identically on two machines running a randomly drawn pair of
// distinct legs (sequential, fast-forward on its default fabric, and
// fast-forward on the fuzzed shard count with the parallel path
// forced), stepped in lockstep, and the complete per-cycle core-state
// fingerprint (Machine.Fingerprint: scheduler flags, pcs, thread slots,
// stream buffers, plus the fabric state) must match every cycle.
// Machine.Step takes no jumps, so this is what keeps the event-driven
// worklist, on one shard or several, from silently diverging from the
// step-every-core-every-cycle semantics. Seed corpus in testdata/fuzz/FuzzMachineEquivalence;
// CI runs this in fuzz-smoke.
func FuzzMachineEquivalence(f *testing.F) {
	f.Add(int64(1), uint64(0x0303), uint64(40))
	f.Add(int64(7), uint64(0x0204), uint64(24))
	f.Add(int64(-3), uint64(0x0602), uint64(64))
	f.Add(int64(99), uint64(0x0505), uint64(96))
	f.Add(int64(11), uint64(0x0404), uint64(48))
	f.Add(int64(-57), uint64(0x0306), uint64(80))
	f.Add(int64(2025), uint64(0x0503), uint64(56))
	f.Add(int64(-1048576), uint64(0x0205), uint64(112))
	f.Fuzz(func(t *testing.T, seed int64, dims, cycles uint64) {
		w := int(dims&0xff)%5 + 2
		h := int((dims>>8)&0xff)%5 + 2
		n := int(cycles%120) + 8
		workers := rand.New(rand.NewSource(seed)).Intn(6) + 2

		// The engine pair under test: two distinct legs drawn from the
		// full matrix, the sharded one keeping the fuzzed worker count so
		// shard-boundary schedules stay covered.
		type leg struct {
			e       Engine
			workers int
		}
		legs := []leg{{EngineSequential, 0}, {EngineFastForward, 1}, {EngineFastForward, workers}}
		er := rand.New(rand.NewSource(seed ^ int64(dims)<<17 ^ int64(cycles)))
		ei := er.Intn(len(legs))
		ej := (ei + 1 + er.Intn(len(legs)-1)) % len(legs)

		// build constructs the same randomized program on any machine:
		// a fresh rng with the same seed makes every draw identical.
		build := func(l leg) *Machine {
			cfg := CS1(w, h)
			cfg.Engine, cfg.Workers = l.e, l.workers
			m := New(cfg)
			if l.e == EngineFastForward && l.workers > 1 {
				fabric.ForceParallel(m.Fab)
			}
			r := rand.New(rand.NewSource(seed + 1))
			nextSlot := make([]int, w*h) // per-tile thread slot allocator

			launch := func(ti int, name string, in Instr, onDone func(*Core)) {
				if nextSlot[ti] >= MaxThreads {
					return // tile out of slots; skip identically on both builds
				}
				m.Tiles[ti].Core.LaunchThread(nextSlot[ti], name, in, onDone)
				nextSlot[ti]++
			}

			// Fabric flows: straight lines to the edge, one color each,
			// a SendMem producer at the source and — sometimes — a
			// StreamAdd consumer at the destination. A flow without a
			// consumer exercises rx backpressure and the stay-runnable
			// clause for pending subscribed words.
			nFlows := r.Intn(4) + 1
			for fi := 0; fi < nFlows; fi++ {
				col := fabric.Color(fi)
				dir := []fabric.Port{fabric.North, fabric.East, fabric.South, fabric.West}[r.Intn(4)]
				src := fabric.Coord{X: r.Intn(w), Y: r.Intn(h)}
				var hops int
				switch dir {
				case fabric.East:
					hops = w - 1 - src.X
				case fabric.West:
					hops = src.X
				case fabric.South:
					hops = h - 1 - src.Y
				case fabric.North:
					hops = src.Y
				}
				dst := src
				if hops == 0 {
					m.Fab.SetRoute(src, fabric.Ramp, col, fabric.Mask(fabric.Ramp))
				} else {
					fabric.BuildPath(m.Fab, src, dir, hops, col)
					dx, dy := dir.Delta()
					dst = fabric.Coord{X: src.X + hops*dx, Y: src.Y + hops*dy}
				}

				total := r.Intn(24) + 1
				srcTile := m.TileAt(src)
				base := srcTile.Arena.MustAlloc(fmt.Sprintf("tx%d", fi), total)
				for i := 0; i < total; i++ {
					srcTile.Arena.Set(base+i, fp16.FromFloat64(float64(r.Intn(64))/8))
				}
				send := &SendMem{Color: col, Src: tensor.Vec1D(base, total), Arena: srcTile.Arena, Total: total}
				launch(m.Fab.Index(src), fmt.Sprintf("tx%d", fi), send, nil)

				dstTile := m.TileAt(dst)
				buf := &NewStreamBufs(1, r.Intn(4)+1)[0]
				dstTile.Core.Subscribe(col, buf)
				if r.Intn(3) > 0 {
					acc := dstTile.Arena.MustAlloc(fmt.Sprintf("rx%d", fi), total)
					add := &StreamAdd{Src: StreamSource{B: buf}, Acc: tensor.Vec1D(acc, total),
						Arena: dstTile.Arena, Total: total}
					launch(m.Fab.Index(dst), fmt.Sprintf("rx%d", fi), add, nil)
				}
			}

			// Task graphs: on a third of the tiles, a two-task chain of
			// MemOps whose completions drive the scheduler edges —
			// activation, self-blocking, unblocking — so cores bounce on
			// and off the worklist.
			for ti := 0; ti < w*h; ti++ {
				if r.Intn(3) != 0 {
					continue
				}
				tl := m.Tiles[ti]
				vn := r.Intn(12) + 2
				a := tl.Arena.MustAlloc("a", vn)
				b := tl.Arena.MustAlloc("b", vn)
				for i := 0; i < vn; i++ {
					tl.Arena.Set(a+i, fp16.FromFloat64(float64(r.Intn(16))/4))
					tl.Arena.Set(b+i, fp16.FromFloat64(1))
				}
				kind := []MemOpKind{OpMul, OpAdd, OpCopy}[r.Intn(3)]
				t0 := tl.Core.AddTask(&Task{Name: "t0", Priority: r.Intn(2) == 0,
					Instrs: []Instr{&MemOp{Kind: kind, Arena: tl.Arena,
						Dst: tensor.Vec1D(b, vn), A: tensor.Vec1D(a, vn), B: tensor.Vec1D(b, vn)}}})
				t1 := tl.Core.AddTask(&Task{Name: "t1",
					Instrs: []Instr{&MemOp{Kind: OpCopy, Arena: tl.Arena,
						Dst: tensor.Vec1D(a, vn), A: tensor.Vec1D(b, vn)}}})
				mode := r.Intn(3)
				t0.OnComplete = func(c *Core) {
					c.Block(t0)
					c.Activate(t1)
				}
				t1.OnComplete = func(c *Core) {
					if mode == 0 {
						c.Unblock(t0)
						c.Activate(t0) // ping-pong forever
					}
				}
				if r.Intn(4) == 0 {
					tl.Core.Block(t0)
				} else {
					tl.Core.Activate(t0)
				}
				// Instrs reset between runs is the kernels' job; the fuzz
				// machines only live for one run, so reuse is fine here.
			}
			return m
		}

		ma := build(legs[ei])
		defer ma.Close()
		mb := build(legs[ej])
		defer mb.Close()
		// name is the engine and shard count: the two fast-forward legs
		// share an engine name.
		name := func(m *Machine) string { return fmt.Sprintf("%s/%d", m.EngineName(), len(m.Fab.ShardRanges())) }
		na, nb := name(ma), name(mb)
		if na == nb && legs[ei].e != EngineFastForward {
			t.Fatalf("engine selection broken: both %q", na)
		}
		t.Logf("engine pair: %s vs %s", na, nb)

		for cyc := 0; cyc < n; cyc++ {
			ma.Step()
			mb.Step()
			if fa, fb := ma.Fingerprint(), mb.Fingerprint(); fa != fb {
				t.Fatalf("cycle %d: machine fingerprints diverge: %s %#x %s %#x",
					cyc, na, fa, nb, fb)
			}
		}
		if a, b := ma.AllIdle(), mb.AllIdle(); a != b {
			t.Fatalf("AllIdle diverges after %d cycles: %s %v %s %v",
				n, na, a, nb, b)
		}
	})
}
