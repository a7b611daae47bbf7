package wse

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/tensor"
)

// walkMemOp is MemOp.Step as it was before the slice path existed: the
// descriptor walk alone, one address generation per element. It is the
// oracle TestMemOpStepContigMatchesWalk steps beside the real Step.
func walkMemOp(m *MemOp, lanes int) int {
	m.started = true
	used := 0
	for used < lanes && !m.Dst.Done() {
		di := m.Dst.Next()
		switch m.Kind {
		case OpMul:
			m.Arena.Set(di, fp16.Mul(m.Arena.At(m.A.Next()), m.Arena.At(m.B.Next())))
		case OpAdd:
			m.Arena.Set(di, fp16.Add(m.Arena.At(m.A.Next()), m.Arena.At(m.B.Next())))
		case OpAxpy:
			m.Arena.Set(di, fp16.FMA(m.S, m.Arena.At(m.A.Next()), m.Arena.At(di)))
		case OpCopy:
			m.Arena.Set(di, m.Arena.At(m.A.Next()))
		case OpFMA:
			m.Arena.Set(di, fp16.FMA(m.S, m.Arena.At(m.A.Next()), m.Arena.At(m.B.Next())))
		case OpXPAY:
			m.Arena.Set(di, fp16.FMA(m.S, m.Arena.At(di), m.Arena.At(m.A.Next())))
		case OpMulAcc:
			m.Arena.Set(di, fp16.Add(m.Arena.At(di), fp16.Mul(m.Arena.At(m.A.Next()), m.Arena.At(m.B.Next()))))
		}
		used++
	}
	return used
}

// walkDotMixed is the pre-slice-path DotMixed.Step.
func walkDotMixed(d *DotMixed, lanes int) int {
	d.began = true
	used := 0
	for used+2 <= lanes && !d.A.Done() {
		d.acc = fp16.MixedFMAC(d.acc, d.Arena.At(d.A.Next()), d.Arena.At(d.B.Next()))
		used += 2
	}
	if d.A.Done() && d.Out != nil {
		*d.Out = d.acc
	}
	return used
}

// caught runs step and reports its return value and whether it panicked.
func caught(step func() int) (used int, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return step(), false
}

const memopWords = 512 // arena words per side; operands live around word 200

// memopArenas returns two arenas holding the same random finite values.
func memopArenas(rng *rand.Rand) (a, b *tensor.Arena) {
	a, b = tensor.NewArena(2*memopWords), tensor.NewArena(2*memopWords)
	a.MustAlloc("m", memopWords)
	b.MustAlloc("m", memopWords)
	for i := 0; i < memopWords; i++ {
		v := fp16.FromFloat64(rng.NormFloat64())
		a.Set(i, v)
		b.Set(i, v)
	}
	return a, b
}

// operandShape builds a descriptor of n elements at base in one of the
// shapes Step must tell apart.
type operandShape int

const (
	shapeVec      operandShape = iota // Vec1D: the slice path
	shapeStrided                      // stride 2
	shapeMat                          // Mat2D with padding between rows
	shapeMatTight                     // Mat2D over contiguous words — still the walk
)

func (s operandShape) desc(base, n int) tensor.Descriptor {
	rows := 2
	if n%3 == 0 {
		rows = 3
	}
	switch {
	case s == shapeVec:
		return tensor.Vec1D(base, n)
	case s == shapeMat && n%rows == 0:
		return tensor.Mat2D(base, rows, n/rows, n/rows+1)
	case s == shapeMatTight && n%rows == 0:
		return tensor.Mat2D(base, rows, n/rows, n/rows)
	}
	return tensor.Strided(base, n, 2) // also where n has no row count
}

var stepLanes = []int{0, 1, 2, 3, 4, 7, 1 << 30}

// stepLayout is one arrangement of operand shapes and what it says about
// the path Step must take.
type stepLayout struct {
	name            string
	dst, a, b       operandShape
	shortA          bool // the second operand runs out before the first
	wantSlice, walk bool // which path counter must be the only one to move
}

var stepLayouts = []stepLayout{
	{name: "vec", wantSlice: true},
	{name: "vec-shortA", shortA: true},
	{name: "strided-dst", dst: shapeStrided, walk: true},
	{name: "mat-a", a: shapeMat, walk: true},
	{name: "strided-b", b: shapeStrided},
	{name: "mat-all", dst: shapeMat, a: shapeMat, b: shapeMat, walk: true},
	{name: "mat-tight", dst: shapeMatTight, a: shapeMatTight, b: shapeMatTight, walk: true},
}

// lockstep calls step and walk alternately until walk's instruction is
// done (at least four times, so a stalled instruction is stalled more
// than once) or panics, requiring equal return values, equal panics and,
// through diverged, equal state after every call. progress says whether
// the lane count lets the instruction advance at all.
func lockstep(t *testing.T, id string, progress bool, step, walk func() int, done func() bool, diverged func() string) {
	t.Helper()
	for call := 0; call < 4 || (progress && !done()); call++ {
		usedNew, panNew := caught(step)
		usedOld, panOld := caught(walk)
		if usedNew != usedOld || panNew != panOld {
			t.Fatalf("%s call %d: Step returned %d (panic %v), walk %d (panic %v)", id, call, usedNew, panNew, usedOld, panOld)
		}
		if d := diverged(); d != "" {
			t.Fatalf("%s call %d: %s", id, call, d)
		}
		if panOld {
			return
		}
	}
}

// checkPath asserts the layout's expectation of the path counters.
func (lay stepLayout) checkPath(t *testing.T, id string, c *Core) {
	t.Helper()
	if lay.wantSlice && (c.sliceSteps == 0 || c.walkSteps != 0) {
		t.Fatalf("%s: contiguous operands took %d slice steps and %d walk steps; want all slice", id, c.sliceSteps, c.walkSteps)
	}
	if lay.walk && (c.sliceSteps != 0 || c.walkSteps == 0) {
		t.Fatalf("%s: non-contiguous operands took %d slice steps and %d walk steps; want all walk", id, c.sliceSteps, c.walkSteps)
	}
}

// arenasDiffer names the first word two arenas disagree on.
func arenasDiffer(step, walk *tensor.Arena) string {
	for i := 0; i < memopWords; i++ {
		if step.At(i) != walk.At(i) {
			return fmt.Sprintf("arena word %d is %#04x, walk wrote %#04x", i, step.At(i).Bits(), walk.At(i).Bits())
		}
	}
	return ""
}

// TestMemOpStepContigMatchesWalk steps MemOp.Step and DotMixed.Step
// beside the descriptor walk they replaced, on identical arenas, and
// after every call compares the return value, every arena word and the
// full state of each descriptor: all kinds, lengths 1–70, every lane
// count the engines use (and 0), operands disjoint, identical or
// overlapping by one word either way, contiguous or not, and a second
// operand too short for the first, which must panic on the same call
// leaving the same state. The path counters prove the contiguous cases
// took the slice path and the others did not.
func TestMemOpStepContigMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	offsets := []int{0, 1, -1, 150, -150} // operand base relative to the first operand's
	type variant struct {
		lay        stepLayout
		offA, offB int
		lanes      int
	}
	var variants []variant
	for _, lay := range stepLayouts {
		for _, offA := range offsets {
			for _, offB := range offsets {
				for _, lanes := range stepLanes {
					variants = append(variants, variant{lay, offA, offB, lanes})
				}
			}
		}
	}
	// short returns the second operand's length: n, or less than n.
	short := func(lay stepLayout, n int) int {
		if lay.shortA {
			return rng.Intn(n)
		}
		return n
	}

	for kind := OpMul; kind <= OpMulAcc; kind++ {
		for _, v := range variants {
			n := 1 + rng.Intn(70)
			nA := short(v.lay, n)
			arNew, arOld := memopArenas(rng)
			s := fp16.FromFloat64(rng.NormFloat64())
			mk := func(ar *tensor.Arena) *MemOp {
				return &MemOp{Kind: kind, Arena: ar, S: s,
					Dst: v.lay.dst.desc(200, n),
					A:   v.lay.a.desc(200+v.offA, nA),
					B:   v.lay.b.desc(200+v.offB, n)}
			}
			opNew, opOld := mk(arNew), mk(arOld)
			c := &Core{}
			id := fmt.Sprintf("kind %d %s offA %d offB %d n %d nA %d lanes %d", kind, v.lay.name, v.offA, v.offB, n, nA, v.lanes)
			lockstep(t, id, v.lanes > 0,
				func() int { return opNew.Step(c, v.lanes) },
				func() int { return walkMemOp(opOld, v.lanes) },
				opOld.Done,
				func() string {
					if opNew.Dst != opOld.Dst || opNew.A != opOld.A || opNew.B != opOld.B || opNew.Done() != opOld.Done() {
						return fmt.Sprintf("descriptor state diverged:\nstep %+v %+v %+v\nwalk %+v %+v %+v",
							opNew.Dst, opNew.A, opNew.B, opOld.Dst, opOld.A, opOld.B)
					}
					return arenasDiffer(arNew, arOld)
				})
			if v.lanes > 0 {
				v.lay.checkPath(t, id, c)
			}
		}
	}

	// DotMixed: operands A and B take the layout's dst and a shapes, and
	// an element costs two lanes.
	for _, v := range variants {
		if v.offA != 0 {
			continue // one offset to vary
		}
		n := 1 + rng.Intn(70)
		nB := short(v.lay, n)
		arNew, arOld := memopArenas(rng)
		var outNew, outOld float32
		mk := func(ar *tensor.Arena, out *float32) *DotMixed {
			return &DotMixed{Arena: ar, Out: out, A: v.lay.dst.desc(200, n), B: v.lay.a.desc(200+v.offB, nB)}
		}
		opNew, opOld := mk(arNew, &outNew), mk(arOld, &outOld)
		c := &Core{}
		id := fmt.Sprintf("dot %s offB %d n %d nB %d lanes %d", v.lay.name, v.offB, n, nB, v.lanes)
		lockstep(t, id, v.lanes > 1,
			func() int { return opNew.Step(c, v.lanes) },
			func() int { return walkDotMixed(opOld, v.lanes) },
			opOld.Done,
			func() string {
				if opNew.A != opOld.A || opNew.B != opOld.B || opNew.Done() != opOld.Done() || opNew.acc != opOld.acc || outNew != outOld {
					return fmt.Sprintf("state diverged: step acc %v out %v %+v %+v, walk acc %v out %v %+v %+v",
						opNew.acc, outNew, opNew.A, opNew.B, opOld.acc, outOld, opOld.A, opOld.B)
				}
				return ""
			})
		if v.lanes > 1 {
			v.lay.checkPath(t, id, c)
		}
	}
}
