package wse

import (
	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

// Instr is a vector instruction executing over multiple cycles on the
// core datapath. Step performs up to `lanes` element-operations and
// returns how many datapath lanes it consumed; Done reports completion.
// Instructions keep their progress in tensor descriptors, which is what
// lets five FIFO-draining adds alias one output vector safely.
//
// Scheduling contract (the event-driven worklist engine relies on it):
// an instruction runs only while its core is stepped, and a not-yet-Done
// instruction keeps the core on the runnable worklist. A type the core
// does not know is called every cycle (twice while lanes are left over,
// as the polling engine did) and its Done is read every cycle; the
// instructions of this file are additionally left uncalled in the cycles
// where a call provably does nothing — no lanes on offer, an empty stream
// buffer, nothing moved since the last call — see unitKind in core.go
// for the rules and what a type must guarantee to join them. The source
// of a streaming thread's instruction is read when the thread is
// launched and must not be swapped while it runs. Step must touch
// only its own core and tile (Send/Recv on c, the tile arena, FIFOs and
// stream buffers of that tile); scheduling calls into other cores would
// race with their shard's worklist under the sharded engine.
type Instr interface {
	Step(c *Core, lanes int) (used int)
	Done() bool
}

// ElemSource supplies fp16 elements to a consuming instruction: either a
// fabric stream buffer or a memory operand. Implementations live in this
// package (StreamSource, MemSource).
type ElemSource interface {
	avail() int
	take() fp16.Float16
}

// StreamSource adapts a StreamBuf (fabric input) as an element source.
type StreamSource struct{ B *StreamBuf }

func (s StreamSource) avail() int         { return s.B.Len() }
func (s StreamSource) take() fp16.Float16 { return s.B.pop() }

// MemSource reads elements through a descriptor from the tile arena.
type MemSource struct {
	A *tensor.Arena
	D *tensor.Descriptor
}

func (s MemSource) avail() int {
	return s.D.Len() - s.D.Advanced()
}
func (s MemSource) take() fp16.Float16 { return s.A.At(s.D.Next()) }

// resetSource rewinds a memory source; a stream has nothing to rewind.
func resetSource(src ElemSource) {
	if m, ok := src.(MemSource); ok {
		m.D.Reset()
	}
}

// streamOf returns the stream buffer behind src, or nil for a memory
// source: the streaming instructions pop a fabric stream through the
// concrete ring instead of two interface calls per element.
func streamOf(src ElemSource) *StreamBuf {
	if s, ok := src.(StreamSource); ok {
		return s.B
	}
	return nil
}

// takeFrom pops the next element from b, the stream behind src if it has
// one (streamOf), and through src otherwise.
func takeFrom(b *StreamBuf, src ElemSource) fp16.Float16 {
	if b != nil {
		return b.pop()
	}
	return src.take()
}

// operand returns the next n elements of d as a slice of live arena
// memory and advances d past them, or nil (d untouched) when they are
// not one ascending run — then the caller walks d with Next, which also
// keeps Next's panic for an operand shorter than the instruction.
func operand(a *tensor.Arena, d *tensor.Descriptor, n int) []fp16.Float16 {
	if !contigLeft(d, n) {
		return nil
	}
	s := a.Slice(d.Pos(), n)
	d.SkipContig(n)
	return s
}

// --------------------------------------------------------------- MemOp

// MemOpKind selects the elementwise operation of a MemOp.
type MemOpKind int

// MemOp kinds.
const (
	OpMul    MemOpKind = iota // dst = a * b
	OpAdd                     // dst = a + b
	OpAxpy                    // dst = dst + s*a   (FMAC)
	OpCopy                    // dst = a
	OpFMA                     // dst = s*a + b     (FMAC, three operands)
	OpXPAY                    // dst = a + s*dst   (FMAC)
	OpMulAcc                  // dst = dst + a*b, rounded as separate multiply and add
)

// MemOp is a memory-to-memory vector instruction (one of the SIMD tensor
// instructions of the ISA). Cost: one lane per element for fp16 ops.
type MemOp struct {
	Kind    MemOpKind
	Arena   *tensor.Arena
	Dst     tensor.Descriptor
	A, B    tensor.Descriptor
	S       fp16.Float16 // scalar for OpAxpy
	started bool
}

// Reset rewinds the instruction for reuse.
func (m *MemOp) Reset() {
	m.Dst.Reset()
	m.A.Reset()
	m.B.Reset()
	m.started = false
}

// Done implements Instr.
func (m *MemOp) Done() bool { return m.started && m.Dst.Done() }

// readsB reports whether the kind reads the B operand.
func (k MemOpKind) readsB() bool {
	switch k {
	case OpMul, OpAdd, OpFMA, OpMulAcc:
		return true
	}
	return false
}

// Apply executes the operation over len(d) elements of contiguous
// operands, in ascending element order with one full read-compute-write
// per element — the order the descriptor walk has, so operands that
// overlap in live arena memory (the accumulate-in-place patterns, a
// destination shifted against its source) behave identically. It is the
// one element kernel of the simulator: MemOp.Step, the batched engine
// and stencilc's fast-forward compute all land here. b is ignored by the
// kinds that do not read it, s by those without a scalar.
func (k MemOpKind) Apply(s fp16.Float16, d, a, b []fp16.Float16) {
	a = a[:len(d)]
	if k.readsB() {
		b = b[:len(d)]
	}
	switch k {
	case OpMul:
		for j := range d {
			d[j] = fp16.Mul(a[j], b[j])
		}
	case OpAdd:
		for j := range d {
			d[j] = fp16.Add(a[j], b[j])
		}
	case OpAxpy:
		for j := range d {
			d[j] = fp16.FMA(s, a[j], d[j])
		}
	case OpCopy:
		// Not copy(): memmove semantics differ from the element order
		// when d overlaps a from above.
		for j := range d {
			d[j] = a[j]
		}
	case OpFMA:
		for j := range d {
			d[j] = fp16.FMA(s, a[j], b[j])
		}
	case OpXPAY:
		for j := range d {
			d[j] = fp16.FMA(s, d[j], a[j])
		}
	case OpMulAcc:
		// Two roundings (multiply, then accumulate), matching the 2D
		// block-halo kernel's functional reference (stencilc.Reference2D),
		// whose scatter is Mul followed by Add — the bit-identity contract
		// between the wafer program and the host kernel depends on this
		// order.
		for j := range d {
			d[j] = fp16.Add(d[j], fp16.Mul(a[j], b[j]))
		}
	}
}

// contigLeft reports whether d's next n elements are one ascending run
// of arena words.
func contigLeft(d *tensor.Descriptor, n int) bool {
	return d.Contig() && d.Len()-d.Advanced() >= n
}

// contig reports whether the next n elements of every operand the kind
// reads can be addressed as slices. Dst is known to have n left.
func (m *MemOp) contig(n int) bool {
	return m.Dst.Contig() && contigLeft(&m.A, n) && (!m.Kind.readsB() || contigLeft(&m.B, n))
}

// stepContig executes the next n elements through Apply and advances
// the descriptors as n walked elements would; contig(n) must hold.
func (m *MemOp) stepContig(n int) {
	var b []fp16.Float16
	if m.Kind.readsB() {
		b = m.Arena.Slice(m.B.Pos(), n)
		m.B.SkipContig(n)
	}
	m.Kind.Apply(m.S, m.Arena.Slice(m.Dst.Pos(), n), m.Arena.Slice(m.A.Pos(), n), b)
	m.started = true
	m.Dst.SkipContig(n)
	m.A.SkipContig(n)
}

// Step implements Instr. The operand shape picks the path: contiguous
// operands (Vec1D — every operand the compiled kernels emit) run the
// cycle's elements as one slice loop; anything strided, multi-dimensional
// or short takes the descriptor walk, one address generation per element.
// Both leave arena, descriptors and return value identical.
func (m *MemOp) Step(c *Core, lanes int) int {
	m.started = true
	if n := min(lanes, m.Dst.Len()-m.Dst.Advanced()); n > 0 && m.contig(n) {
		m.stepContig(n)
		c.sliceSteps++
		return n
	}
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
		case OpMulAcc: // see Apply
			m.Arena.Set(di, fp16.Add(m.Arena.At(di), fp16.Mul(m.Arena.At(m.A.Next()), m.Arena.At(m.B.Next()))))
		}
		used++
	}
	if used > 0 {
		c.walkSteps++
	}
	return used
}

// --------------------------------------------------------------- MulToFIFO

// MulToFIFO multiplies a streaming source by a memory coefficient vector
// and pushes products into a hardware FIFO — the body of the five SpMV
// multiplier threads. It stalls when the FIFO is full or the stream is
// dry. Total is the element count (Z).
type MulToFIFO struct {
	Src   ElemSource
	Coeff tensor.Descriptor
	FIFO  *tensor.FIFO
	Arena *tensor.Arena
	Total int
	done  int
}

// Done implements Instr.
func (m *MulToFIFO) Done() bool { return m.done >= m.Total }

// Reset rewinds the instruction (and a memory source's descriptor) for
// reuse. The FIFO and a stream source are left as they are.
func (m *MulToFIFO) Reset() {
	m.Coeff.Reset()
	resetSource(m.Src)
	m.done = 0
}

// Step implements Instr. The cycle's element count is decided once —
// lanes, elements left, stream occupancy and FIFO space bound it — and
// the elements then run in order, each one read, multiplied and pushed
// before the next is read, as the per-element loop did.
func (m *MulToFIFO) Step(c *Core, lanes int) int {
	n := min(lanes, m.Total-m.done, m.Src.avail(), m.FIFO.Space())
	if n <= 0 {
		return 0
	}
	b, coeff := streamOf(m.Src), operand(m.Arena, &m.Coeff, n)
	for i := 0; i < n; i++ {
		v := takeFrom(b, m.Src)
		var k fp16.Float16
		if coeff != nil {
			k = coeff[i]
		} else {
			k = m.Arena.At(m.Coeff.Next())
		}
		m.FIFO.Push(m.Arena, fp16.Mul(k, v))
	}
	m.done += n
	return n
}

// --------------------------------------------------------------- StreamAdd

// StreamAdd accumulates a streaming source into a memory accumulator:
// acc[] = acc[] + rx[], the main-diagonal thread of the SpMV (thread 5 in
// the listing — no multiply, because the diagonal is all ones).
type StreamAdd struct {
	Src   ElemSource
	Acc   tensor.Descriptor
	Arena *tensor.Arena
	Total int
	done  int
}

// Done implements Instr.
func (s *StreamAdd) Done() bool { return s.done >= s.Total }

// Reset rewinds the instruction for reuse, as MulToFIFO.Reset does.
func (s *StreamAdd) Reset() {
	s.Acc.Reset()
	resetSource(s.Src)
	s.done = 0
}

// Step implements Instr, with MulToFIFO.Step's shape.
func (s *StreamAdd) Step(c *Core, lanes int) int {
	n := min(lanes, s.Total-s.done, s.Src.avail())
	if n <= 0 {
		return 0
	}
	b, acc := streamOf(s.Src), operand(s.Arena, &s.Acc, n)
	for i := 0; i < n; i++ {
		if acc != nil {
			acc[i] = fp16.Add(acc[i], takeFrom(b, s.Src))
		} else {
			p := s.Acc.Next()
			s.Arena.Set(p, fp16.Add(s.Arena.At(p), takeFrom(b, s.Src)))
		}
	}
	s.done += n
	return n
}

// --------------------------------------------------------------- StreamStore

// StreamStore copies a streaming source into memory verbatim: dst[] =
// rx[], with no arithmetic and therefore no rounding — the receive half
// of a halo transfer whose values must land bit-exactly (the
// decomposition-invariance contract of the halo-resident SpMV depends
// on a stream hop preserving bits the way a host-side edge-I/O copy
// does). Costs one lane per element, like the other elementwise moves.
type StreamStore struct {
	Src   ElemSource
	Dst   tensor.Descriptor
	Arena *tensor.Arena
	Total int
	done  int
}

// Done implements Instr.
func (s *StreamStore) Done() bool { return s.done >= s.Total }

// Reset rewinds the instruction for reuse, as MulToFIFO.Reset does.
func (s *StreamStore) Reset() {
	s.Dst.Reset()
	resetSource(s.Src)
	s.done = 0
}

// Step implements Instr, with MulToFIFO.Step's shape.
func (s *StreamStore) Step(c *Core, lanes int) int {
	n := min(lanes, s.Total-s.done, s.Src.avail())
	if n <= 0 {
		return 0
	}
	b, dst := streamOf(s.Src), operand(s.Arena, &s.Dst, n)
	for i := 0; i < n; i++ {
		if dst != nil {
			dst[i] = takeFrom(b, s.Src)
		} else {
			p := s.Dst.Next()
			s.Arena.Set(p, takeFrom(b, s.Src))
		}
	}
	s.done += n
	return n
}

// --------------------------------------------------------------- FIFOAdd

// FIFOAdd drains whatever a FIFO currently holds into an accumulator,
// finishing when the FIFO is empty; its destination descriptor tracks
// progress across invocations, so repeated activations of the summation
// task accumulate exactly Total elements. This is one of sumtask's five
// adds.
type FIFOAdd struct {
	FIFO  *tensor.FIFO
	Acc   tensor.Descriptor
	Arena *tensor.Arena
	Total int
	added int
}

// Done implements Instr: done when the FIFO has nothing more right now.
// (The task re-activates on the next push.)
func (f *FIFOAdd) Done() bool { return f.FIFO.Len() == 0 || f.added >= f.Total }

// Complete reports whether all Total elements have been accumulated.
func (f *FIFOAdd) Complete() bool { return f.added >= f.Total }

// Reset rewinds the accumulator for reuse; the FIFO is left as it is.
func (f *FIFOAdd) Reset() {
	f.Acc.Reset()
	f.added = 0
}

// Step implements Instr, with MulToFIFO.Step's shape.
func (f *FIFOAdd) Step(c *Core, lanes int) int {
	n := min(lanes, f.Total-f.added, f.FIFO.Len())
	if n <= 0 {
		return 0
	}
	acc := operand(f.Arena, &f.Acc, n)
	for i := 0; i < n; i++ {
		v, _ := f.FIFO.Pop(f.Arena)
		if acc != nil {
			acc[i] = fp16.Add(acc[i], v)
		} else {
			p := f.Acc.Next()
			f.Arena.Set(p, fp16.Add(f.Arena.At(p), v))
		}
	}
	f.added += n
	return n
}

// --------------------------------------------------------------- SendMem

// SendMem streams a memory vector out on a fabric color, two fp16
// elements per 32-bit word, one word per cycle across the ramp — the
// c_tx[] = v1[] send thread. It consumes no datapath lanes.
type SendMem struct {
	Color fabric.Color
	Src   tensor.Descriptor
	Arena *tensor.Arena
	Total int // elements; if odd, the final word is zero-padded

	sent     int
	pending  bool
	pendingN int
	word     fabric.Word
}

// Done implements Instr.
func (s *SendMem) Done() bool { return s.sent >= s.Total && !s.pending }

// Reset rewinds the instruction for reuse, dropping a word it had packed
// but not yet sent.
func (s *SendMem) Reset() {
	s.Src.Reset()
	s.sent, s.pending = 0, false
}

// Step implements Instr.
func (s *SendMem) Step(c *Core, lanes int) int {
	if !s.pending {
		if s.sent >= s.Total {
			return 0
		}
		lo := s.Arena.At(s.Src.Next())
		hi := fp16.Zero
		s.pendingN = 1
		if s.sent+1 < s.Total {
			hi = s.Arena.At(s.Src.Next())
			s.pendingN = 2
		}
		s.word = fabric.PackF16(s.Color, lo, hi)
		s.pending = true
	}
	if c.Send(s.word) {
		s.sent += s.pendingN
		s.pending = false
	}
	return 0
}

// --------------------------------------------------------------- DotMixed

// DotMixed computes the mixed-precision inner product of two memory
// vectors with the hardware inner-product instruction: exact fp16
// products, float32 accumulation, two FMACs per cycle — so each element
// costs two lanes.
type DotMixed struct {
	A, B  tensor.Descriptor
	Arena *tensor.Arena
	Out   *float32
	acc   float32
	began bool
}

// Reset rewinds the instruction for reuse.
func (d *DotMixed) Reset() {
	d.A.Reset()
	d.B.Reset()
	d.acc = 0
	d.began = false
}

// Done implements Instr.
func (d *DotMixed) Done() bool { return d.began && d.A.Done() }

// stepContig folds the next e elements of contiguous operands into the
// accumulator and publishes the result once the vector is exhausted.
func (d *DotMixed) stepContig(e int) {
	d.acc = fp16.DotMixedAcc(d.acc, d.Arena.Slice(d.A.Pos(), e), d.Arena.Slice(d.B.Pos(), e))
	d.began = true
	d.A.SkipContig(e)
	d.B.SkipContig(e)
	if d.A.Done() && d.Out != nil {
		*d.Out = d.acc
	}
}

// Step implements Instr, with MemOp.Step's choice of path.
func (d *DotMixed) Step(c *Core, lanes int) int {
	d.began = true
	if e := min(lanes/2, d.A.Len()-d.A.Advanced()); e > 0 && d.A.Contig() && contigLeft(&d.B, e) {
		d.stepContig(e)
		c.sliceSteps++
		return 2 * e
	}
	used := 0
	for used+2 <= lanes && !d.A.Done() {
		d.acc = fp16.MixedFMAC(d.acc, d.Arena.At(d.A.Next()), d.Arena.At(d.B.Next()))
		used += 2
	}
	if used > 0 {
		c.walkSteps++
	}
	if d.A.Done() && d.Out != nil {
		*d.Out = d.acc
	}
	return used
}

// --------------------------------------------------------------- ScalarSend

// ScalarSend emits one float32 word on a color (used by the AllReduce
// reduction paths).
type ScalarSend struct {
	Color fabric.Color
	Value func() float32 // evaluated at send time
	sent  bool
}

// Done implements Instr.
func (s *ScalarSend) Done() bool { return s.sent }

// Step implements Instr.
func (s *ScalarSend) Step(c *Core, lanes int) int {
	if s.sent {
		return 0
	}
	if c.Send(fabric.WordF32(s.Color, s.Value())) {
		s.sent = true
	}
	return 0
}
