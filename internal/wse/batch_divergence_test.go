package wse

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

// The batched engine's correctness story is its divergence check:
// classification happens against live core state every cycle, and any
// core the one-decode/many-lanes path cannot express falls back to the
// scalar interpreter for that cycle. These property tests force a lane
// out of its batch through each divergence mechanism — an rx delivery
// landing mid-batch, a wedging instruction, live threads that later
// exhaust, and boundary-shaped instruction streams (plus a class-table
// overflow) — at every instruction index of a tile program, and require
// the batched machine to match a never-batched sequential run
// bit-for-bit on every cycle's fingerprint. The table is small enough
// to run under -race (CI's race leg runs this package).

// divergenceProgram arms every tile with a K-instruction task of
// 4-element OpAdd MemOps (one datapath cycle each at SIMD 4) over its
// own arena, then lets mutate hook one tile's build. Returns the
// machine.
const divK = 10

func divergenceMachine(t *testing.T, e Engine, simd int, mutate func(m *Machine)) *Machine {
	t.Helper()
	cfg := CS1(4, 3)
	cfg.Engine = e
	cfg.SIMDWidth = simd
	m := New(cfg)
	for ti := range m.Tiles {
		tl := m.Tiles[ti]
		a := tl.Arena.MustAlloc("a", 4)
		b := tl.Arena.MustAlloc("b", 4)
		for i := 0; i < 4; i++ {
			tl.Arena.Set(a+i, fp16.FromFloat64(float64((ti+i)%9)/4))
			tl.Arena.Set(b+i, fp16.FromFloat64(float64((ti+2*i)%7)/8))
		}
		in := make([]Instr, divK)
		for j := range in {
			in[j] = &MemOp{Kind: OpAdd, Arena: tl.Arena,
				Dst: tensor.Vec1D(b, 4), A: tensor.Vec1D(a, 4), B: tensor.Vec1D(b, 4)}
		}
		tk := tl.Core.AddTask(&Task{Name: "div", Instrs: in})
		tl.Core.Activate(tk)
	}
	if mutate != nil {
		mutate(m)
	}
	return m
}

// lockstepDivergence steps a sequential and a batched build of the same
// program in per-cycle fingerprint lockstep.
func lockstepDivergence(t *testing.T, cycles int, simd int, mutate func(m *Machine)) {
	t.Helper()
	seq := divergenceMachine(t, EngineSequential, simd, mutate)
	defer seq.Close()
	bat := divergenceMachine(t, EngineBatched, simd, mutate)
	defer bat.Close()
	for cyc := 0; cyc < cycles; cyc++ {
		seq.Step()
		bat.Step()
		if fa, fb := seq.Fingerprint(), bat.Fingerprint(); fa != fb {
			t.Fatalf("cycle %d: fingerprints diverge: seq %#x, batched %#x", cyc, fa, fb)
		}
	}
	if a, b := seq.AllIdle(), bat.AllIdle(); a != b {
		t.Fatalf("AllIdle diverges: seq %v, batched %v", a, b)
	}
}

// TestBatchDivergenceRxMidBatch lands a fabric word at a batching
// core's ramp on every cycle offset of its instruction stream: a
// neighbour delays d cycles (a pad MemOp), then streams one word east
// into tile (3,1), which subscribes the color. The delivery flips
// rxArmed and the core must take the scalar path for exactly the
// cycles the sequential engine does.
func TestBatchDivergenceRxMidBatch(t *testing.T) {
	for d := 0; d <= divK+6; d++ {
		t.Run(fmt.Sprintf("delay%d", d), func(t *testing.T) {
			d := d
			lockstepDivergence(t, divK+40, 4, func(m *Machine) {
				src := fabric.Coord{X: 0, Y: 1}
				fabric.BuildPath(m.Fab, src, fabric.East, 3, 0)
				st := m.TileAt(src)
				pad := st.Arena.MustAlloc("pad", 4*(d+1))
				word := st.Arena.MustAlloc("word", 1)
				st.Arena.Set(word, fp16.FromFloat64(0.5))
				send := &SendMem{Color: 0, Src: tensor.Vec1D(word, 1), Arena: st.Arena, Total: 1}
				tk := st.Core.AddTask(&Task{Name: "delay", Instrs: []Instr{
					&MemOp{Kind: OpCopy, Arena: st.Arena,
						Dst: tensor.Vec1D(pad, 4*(d+1)), A: tensor.Vec1D(pad, 4*(d+1))},
				}})
				tk.OnComplete = func(c *Core) { c.LaunchThread(0, "tx", send, nil) }
				st.Core.Activate(tk)
				m.TileAt(fabric.Coord{X: 3, Y: 1}).Core.Subscribe(0, &NewStreamBufs(1, 2)[0])
			})
		})
	}
}

// TestBatchDivergenceWedge places a DotMixed at every instruction index
// on one tile of a SIMD-1 machine. The scalar datapath cannot issue the
// 2-lane mixed FMAC at width 1 and wedges; classify refuses to batch it
// for the same reason, and the wedged state — core forever runnable,
// machine never idle — must be identical under both engines.
func TestBatchDivergenceWedge(t *testing.T) {
	for k := 0; k < divK; k++ {
		t.Run(fmt.Sprintf("index%d", k), func(t *testing.T) {
			k := k
			lockstepDivergence(t, 4*divK+20, 1, func(m *Machine) {
				tl := m.TileAt(fabric.Coord{X: 2, Y: 1})
				va := tl.Arena.MustAlloc("da", 4)
				vb := tl.Arena.MustAlloc("db", 4)
				var out float32
				// Rebuild the tile's task with a dot wedged at index k.
				in := make([]Instr, divK)
				a := tl.Arena.MustAlloc("a2", 4)
				b := tl.Arena.MustAlloc("b2", 4)
				for j := range in {
					if j == k {
						in[j] = &DotMixed{A: tensor.Vec1D(va, 4), B: tensor.Vec1D(vb, 4),
							Arena: tl.Arena, Out: &out}
						continue
					}
					in[j] = &MemOp{Kind: OpAdd, Arena: tl.Arena,
						Dst: tensor.Vec1D(b, 4), A: tensor.Vec1D(a, 4), B: tensor.Vec1D(b, 4)}
				}
				tk := tl.Core.AddTask(&Task{Name: "wedge", Instrs: in})
				tl.Core.Activate(tk)
			})
		})
	}
}

// TestBatchDivergenceThreadExhaustion keeps a background thread alive
// on one tile for a varying number of cycles: while nthreads > 0 the
// core must step scalar, and the cycle the last thread exhausts it
// rejoins its batch class — at every possible index of the program.
func TestBatchDivergenceThreadExhaustion(t *testing.T) {
	for d := 0; d <= divK+4; d++ {
		t.Run(fmt.Sprintf("words%d", d+1), func(t *testing.T) {
			d := d
			lockstepDivergence(t, divK+40, 4, func(m *Machine) {
				src := fabric.Coord{X: 2, Y: 1}
				fabric.BuildPath(m.Fab, src, fabric.East, 1, 1)
				st := m.TileAt(src)
				n := d + 1
				buf := st.Arena.MustAlloc("tx", n)
				for i := 0; i < n; i++ {
					st.Arena.Set(buf+i, fp16.FromFloat64(float64(i)/8))
				}
				st.Core.LaunchThread(0, "tx",
					&SendMem{Color: 1, Src: tensor.Vec1D(buf, n), Arena: st.Arena, Total: n}, nil)

				dst := m.TileAt(fabric.Coord{X: 3, Y: 1})
				sb := &NewStreamBufs(1, 2)[0]
				dst.Core.Subscribe(1, sb)
				acc := dst.Arena.MustAlloc("rx", n)
				dst.Core.LaunchThread(0, "rx",
					&StreamAdd{Src: StreamSource{B: sb}, Acc: tensor.Vec1D(acc, n),
						Arena: dst.Arena, Total: n}, nil)
			})
		})
	}
}

// TestBatchDivergenceBoundaryShape gives one tile a boundary-shaped
// stream — instruction k has 8 elements where the interior has 4, so
// its remaining-element count never matches the interior class — plus
// an idle color subscription (the boundary-tile configuration), and
// spreads seven MemOp kinds across the other tiles so the per-cycle
// class table overflows maxBatchClasses and the table-full scalar
// fallback executes too.
func TestBatchDivergenceBoundaryShape(t *testing.T) {
	kinds := []MemOpKind{OpMul, OpAdd, OpAxpy, OpCopy, OpFMA, OpXPAY, OpMulAcc}
	for k := 0; k < divK; k++ {
		t.Run(fmt.Sprintf("index%d", k), func(t *testing.T) {
			k := k
			lockstepDivergence(t, 4*divK+20, 4, func(m *Machine) {
				for ti := range m.Tiles {
					tl := m.Tiles[ti]
					wide := 4
					if ti == 6 { // tile (2,1): the boundary lane
						wide = 8
						tl.Core.Subscribe(5, &NewStreamBufs(1, 2)[0])
					}
					a := tl.Arena.MustAlloc("ba", wide)
					b := tl.Arena.MustAlloc("bb", wide)
					for i := 0; i < wide; i++ {
						tl.Arena.Set(a+i, fp16.FromFloat64(float64((ti+i)%11)/8))
						tl.Arena.Set(b+i, fp16.FromFloat64(float64((ti+3*i)%5)/4))
					}
					in := make([]Instr, divK)
					for j := range in {
						n := 4
						if ti == 6 && j == k {
							n = wide
						}
						in[j] = &MemOp{Kind: kinds[(ti+j)%len(kinds)], S: fp16.FromFloat64(0.75),
							Arena: tl.Arena,
							Dst:   tensor.Vec1D(b, n), A: tensor.Vec1D(a, n), B: tensor.Vec1D(b, n)}
					}
					tk := tl.Core.AddTask(&Task{Name: "bnd", Instrs: in})
					tl.Core.Activate(tk)
				}
			})
		})
	}
}
