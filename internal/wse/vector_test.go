package wse

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fp16"
	"repro/internal/tensor"
)

// TestVectorPhaseJumpMatchesStep holds VectorPhase's one-loop path to
// stepping. Each phase kind runs twice in a row on a 5×3 machine under
// the sequential and the fast-forward engine, from four starting
// states: every core idle; every core on a worklist through Subscribe
// but with nothing to do (what a compiled program leaves); one core
// with another task activated ahead of its phase task, which stretches
// that tile's first phase and so must make it step (the other task is
// done by the second); and one core with a thread sharing its datapath,
// which outlives the first phase and so makes both step. After each
// phase the cycles it reports, the machine cycle, the fingerprint, every
// arena word and the dot partials must be equal between the engines,
// and the fast-forward machine must have jumped exactly the phases it
// was allowed to.
func TestVectorPhaseJumpMatchesStep(t *testing.T) {
	const w, h, n = 5, 3, 7 // n is not a multiple of the SIMD width
	s := fp16.FromFloat64(-0.375)
	phases := []struct {
		name string
		run  func(v *VectorPhase, off [3][]int, out []float32) int64
	}{
		{"axpy", func(v *VectorPhase, off [3][]int, _ []float32) int64 {
			return v.Apply(OpAxpy, s, off[0], off[1], nil, n)
		}},
		{"fma", func(v *VectorPhase, off [3][]int, _ []float32) int64 {
			return v.Apply(OpFMA, s, off[0], off[1], off[2], n)
		}},
		{"xpay", func(v *VectorPhase, off [3][]int, _ []float32) int64 {
			return v.Apply(OpXPAY, s, off[0], off[1], nil, n)
		}},
		{"dot", func(v *VectorPhase, off [3][]int, out []float32) int64 { return v.Dot(off[1], off[2], n, out) }},
	}
	states := []struct {
		name string
		prep func(m *Machine) // before the phase tasks are registered
		// ff is the fast-forward engine's {jumped, stepped} phase count.
		ff [2]int
	}{
		{"idle", func(*Machine) {}, [2]int{2, 0}},
		{"subscribed", func(m *Machine) {
			bufs := NewStreamBufs(len(m.Tiles), 2)
			for i, tl := range m.Tiles {
				tl.Core.Subscribe(0, &bufs[i])
			}
		}, [2]int{2, 0}},
		{"other task", func(m *Machine) {
			tl := m.Tiles[4]
			off := tl.Arena.MustAlloc("other", n)
			other := tl.Core.AddTask(&Task{Name: "other", Instrs: []Instr{&MemOp{Kind: OpCopy, Arena: tl.Arena,
				Dst: tensor.Vec1D(off, n), A: tensor.Vec1D(off, n)}}})
			tl.Core.Activate(other)
		}, [2]int{1, 1}},
		{"thread", func(m *Machine) {
			tl := m.Tiles[7]
			off := tl.Arena.MustAlloc("thread", n)
			tl.Core.LaunchThread(0, "copy", &MemOp{Kind: OpCopy, Arena: tl.Arena,
				Dst: tensor.Vec1D(off, n), A: tensor.Vec1D(off, n)}, nil)
		}, [2]int{0, 2}},
	}
	type run struct {
		m   *Machine
		v   *VectorPhase
		off [3][]int
		out []float32
	}
	build := func(e Engine, prep func(*Machine)) run {
		m := New(Config{FabricW: w, FabricH: h, Engine: e})
		prep(m)
		r := run{m: m, v: NewVectorPhase(m), out: make([]float32, w*h)}
		rng := rand.New(rand.NewSource(5))
		for k := range r.off {
			r.off[k] = make([]int, w*h)
			for i, tl := range m.Tiles {
				r.off[k][i] = tl.Arena.MustAlloc(fmt.Sprint(k), n)
				for e := 0; e < n; e++ {
					tl.Arena.Set(r.off[k][i]+e, fp16.FromFloat64(rng.Float64()*2-1))
				}
			}
		}
		return r
	}
	for _, st := range states {
		for _, ph := range phases {
			t.Run(st.name+"/"+ph.name, func(t *testing.T) {
				seq, ff := build(EngineSequential, st.prep), build(EngineFastForward, st.prep)
				defer seq.m.Close()
				defer ff.m.Close()
				for k := 0; k < 2; k++ {
					cs, cf := ph.run(seq.v, seq.off, seq.out), ph.run(ff.v, ff.off, ff.out)
					if cs != cf || seq.m.Cycle() != ff.m.Cycle() {
						t.Fatalf("phase %d: seq %d cycles (clock %d), ff %d (clock %d)", k, cs, seq.m.Cycle(), cf, ff.m.Cycle())
					}
					if fs, fff := seq.m.Fingerprint(), ff.m.Fingerprint(); fs != fff {
						t.Fatalf("phase %d: fingerprints diverge: seq %#x, ff %#x", k, fs, fff)
					}
					for i := range seq.m.Tiles {
						a, b := seq.m.Tiles[i].Arena, ff.m.Tiles[i].Arena
						if !slices.Equal(a.Slice(0, a.Used()/2), b.Slice(0, b.Used()/2)) { // Used is in bytes
							t.Fatalf("phase %d: tile %d arenas diverge", k, i)
						}
					}
					if !slices.Equal(seq.out, ff.out) {
						t.Fatalf("phase %d: dot partials diverge: seq %v, ff %v", k, seq.out, ff.out)
					}
				}
				if c := seq.m.Phases(PhaseVector); c.Jumped != 0 || c.Stepped != 2 {
					t.Errorf("sequential engine jumped %d and stepped %d phases, want 0 and 2", c.Jumped, c.Stepped)
				}
				if c := ff.m.Phases(PhaseVector); [2]int{c.Jumped, c.Stepped} != st.ff {
					t.Errorf("fast-forward engine jumped %d and stepped %d phases, want %d and %d", c.Jumped, c.Stepped, st.ff[0], st.ff[1])
				}
			})
		}
	}
}
