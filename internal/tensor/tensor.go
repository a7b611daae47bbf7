// Package tensor models the CS-1 Data Structure Registers (DSRs): hardware
// descriptors that generate tensor access addresses so that vector
// instructions iterate over (possibly strided, possibly multi-dimensional)
// memory operands with no loop overhead.
//
// A Descriptor is the software analogue of the paper's
//
//	tensor xp_a = {.base=xp, .shape={1,Z}, .stride={0,1}};
//
// declarations: a base offset into a tile-local arena, a shape of up to four
// dimensions, and a stride per dimension. Descriptors advance element by
// element; kernels use them both for memory operands and as the progress
// trackers of asynchronously executing vector instructions ("their
// destination tensor descriptors track their progress").
package tensor

import (
	"fmt"

	"repro/internal/fp16"
)

// MaxDims is the number of dimensions a descriptor supports, matching the
// four-dimensional subtensor support of the CS-1 instruction set.
const MaxDims = 4

// Descriptor generates the address sequence for a tensor operand.
// Dimension 0 is outermost, as in the paper's {.shape={1,Z}} examples.
type Descriptor struct {
	Base   int          // starting element offset in the arena
	Shape  [MaxDims]int // extent per dimension; unused dims have extent 1
	Stride [MaxDims]int // element stride per dimension

	// len1 caches Len()+1 for descriptors built by the constructors
	// below, so the per-element Next → Done → Len chain does not multiply
	// four extents; 0 (a literal) means compute on demand.
	len1 int

	// iteration state (idx is narrow so the cached length does not grow
	// the struct: every instruction embeds two or three descriptors)
	idx [MaxDims]int32
	off int
	n   int // elements emitted
}

// Vec1D returns a descriptor for a contiguous run of n elements at base,
// the common case in the SpMV listing. Like every constructor it panics
// on a negative extent; a zero extent is an empty operand (Len 0, Done
// at once).
func Vec1D(base, n int) Descriptor {
	return Descriptor{
		Base:   base,
		Shape:  [MaxDims]int{1, 1, 1, n},
		Stride: [MaxDims]int{0, 0, 0, 1},
	}.withLen()
}

// Strided returns a descriptor over n elements with a fixed stride.
func Strided(base, n, stride int) Descriptor {
	return Descriptor{
		Base:   base,
		Shape:  [MaxDims]int{1, 1, 1, n},
		Stride: [MaxDims]int{0, 0, 0, stride},
	}.withLen()
}

// Mat2D returns a descriptor over a rows×cols subtensor embedded in a
// row-major region with the given row stride: rows outermost, columns
// contiguous — the .shape={b,b} block operands of the 2D mapping.
func Mat2D(base, rows, cols, rowStride int) Descriptor {
	return Descriptor{
		Base:   base,
		Shape:  [MaxDims]int{1, 1, rows, cols},
		Stride: [MaxDims]int{0, 0, rowStride, 1},
	}.withLen()
}

func (d Descriptor) withLen() Descriptor {
	for _, s := range d.Shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative extent in shape %v", d.Shape))
		}
	}
	d.len1 = d.Len() + 1
	return d
}

// Len returns the total number of elements the descriptor traverses:
// the product of the four extents, so a zero extent anywhere makes the
// operand empty. (A literal's negative extent counts as zero; the
// constructors reject it.)
func (d *Descriptor) Len() int {
	if d.len1 != 0 {
		return d.len1 - 1
	}
	n := 1
	for _, s := range d.Shape {
		n *= max(s, 0)
	}
	return n
}

// Reset rewinds the descriptor to its initial position.
func (d *Descriptor) Reset() {
	d.idx = [MaxDims]int32{}
	d.off = 0
	d.n = 0
}

// Done reports whether the descriptor has traversed all elements.
func (d *Descriptor) Done() bool { return d.n >= d.Len() }

// Pos returns the current element offset (Base + accumulated strides).
// It is only meaningful while !Done().
func (d *Descriptor) Pos() int { return d.Base + d.off }

// Advanced returns how many elements have been emitted so far.
func (d *Descriptor) Advanced() int { return d.n }

// Next returns the current element offset and advances by one element,
// odometer-style from the innermost dimension outward. It panics if the
// descriptor is exhausted: kernels are required to size their operands
// consistently, as the hardware does.
func (d *Descriptor) Next() int {
	if d.Done() {
		panic("tensor: descriptor advanced past its extent")
	}
	pos := d.Base + d.off
	d.n++
	for dim := MaxDims - 1; dim >= 0; dim-- {
		d.idx[dim]++
		d.off += d.Stride[dim]
		if int(d.idx[dim]) < d.Shape[dim] {
			return pos
		}
		d.off -= int(d.idx[dim]) * d.Stride[dim]
		d.idx[dim] = 0
	}
	return pos
}

// Contig reports whether the descriptor walks a contiguous ascending
// run of elements — all outer extents 1 and unit inner stride — so a
// consumer may address its remaining elements as one slice
// [Pos(), Pos()+Len()-Advanced()) and advance with SkipContig. This is
// the Vec1D shape, the overwhelmingly common operand layout of the
// compiled kernels, and what the streaming instructions' slice step
// requires.
func (d *Descriptor) Contig() bool {
	return d.Shape[0] == 1 && d.Shape[1] == 1 && d.Shape[2] == 1 && d.Stride[3] == 1
}

// SkipContig advances a contiguous descriptor by k elements without
// emitting addresses, leaving exactly the state k Next() calls would:
// the partial position while elements remain, or the fully-wrapped rest
// state (all indices zero) once the extent is exhausted. It panics on a
// non-contiguous descriptor or an advance past the extent, mirroring
// Next's misuse contract.
func (d *Descriptor) SkipContig(k int) {
	if !d.Contig() || d.n+k > d.Len() {
		panic("tensor: SkipContig past extent or on non-contiguous descriptor")
	}
	d.n += k
	if d.n >= d.Len() {
		d.idx[3] = 0
		d.off = 0
	} else {
		d.idx[3] += int32(k)
		d.off += k
	}
}

// Arena is a tile-local fp16 memory region with byte-budget accounting.
// Every tile of the simulated wafer owns one Arena limited to the CS-1's
// 48 KB; allocations beyond the budget fail, which is how the reproduction
// enforces the paper's memory-capacity arguments (10·Z words ≈ 31 KB at
// Z = 1536, maximum 2D block 38×38, …).
type Arena struct {
	mem    []fp16.Float16
	budget int // bytes
	used   int // bytes
	// peak is shared by the arenas NewArenas made together: the most words
	// any of them has held.
	peak *int
}

// BytesPerWord is the storage size of one fp16 element.
const BytesPerWord = 2

// NewArenas creates n arenas with the given byte budget each — one per
// tile of a machine. They grow as siblings: the tiles of a machine run
// one program and allocate alike, so an arena that must grow reserves
// the size its largest sibling has reached, and doubles only when it is
// the largest. Each tile then reallocates about twice while a program is
// built, not once per doubling, and holds little more than it uses.
func NewArenas(n, budgetBytes int) []Arena {
	peak := new(int)
	as := make([]Arena, n)
	for i := range as {
		as[i] = Arena{budget: budgetBytes, peak: peak}
	}
	return as
}

// Alloc reserves words fp16 elements under the given name and returns the
// base offset. It returns an error if the budget would be exceeded.
func (a *Arena) Alloc(name string, words int) (int, error) {
	bytes := words * BytesPerWord
	if a.used+bytes > a.budget {
		return 0, fmt.Errorf("tensor: arena over budget allocating %q: %d + %d > %d bytes",
			name, a.used, bytes, a.budget)
	}
	base := len(a.mem)
	need := base + words
	if need > cap(a.mem) {
		c := *a.peak
		if c < need {
			c = max(need, 2*cap(a.mem))
		}
		mem := make([]fp16.Float16, need, min(c, a.budget/BytesPerWord))
		copy(mem, a.mem)
		a.mem = mem
	} else {
		a.mem = a.mem[:need] // never held before: still zero
	}
	*a.peak = max(*a.peak, need)
	a.used += bytes
	return base, nil
}

// MustAlloc is Alloc for program-construction paths where exceeding the
// budget is a programming error in the kernel itself.
func (a *Arena) MustAlloc(name string, words int) int {
	base, err := a.Alloc(name, words)
	if err != nil {
		panic(err)
	}
	return base
}

// Used returns the bytes currently allocated.
func (a *Arena) Used() int { return a.used }

// At returns the element at offset i.
func (a *Arena) At(i int) fp16.Float16 { return a.mem[i] }

// Set stores v at offset i.
func (a *Arena) Set(i int, v fp16.Float16) { a.mem[i] = v }

// Slice returns the live storage for [base, base+n); writes are visible to
// the arena. Kernels use this for bulk initialization.
func (a *Arena) Slice(base, n int) []fp16.Float16 { return a.mem[base : base+n] }
