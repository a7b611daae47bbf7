package tensor

import "repro/internal/fp16"

// FIFO is the software model of a CS-1 hardware-managed in-memory FIFO: a
// circular buffer over an arena region with head/tail registers maintained
// by the hardware, able to activate a task whenever data is pushed. The
// SpMV kernel allocates five of these ("term[5][20]") to forward streaming
// elementwise products from multiplier threads to the summation task.
type FIFO struct {
	baseOff    int
	capWords   int
	head, tail int
	count      int
	OnPush     func() // task activation hook, set by the kernel
}

// NewFIFO creates a FIFO over words elements of the arena starting at base.
func NewFIFO(base, words int) *FIFO {
	return &FIFO{baseOff: base, capWords: words}
}

// Cap returns the FIFO capacity in elements.
func (f *FIFO) Cap() int { return f.capWords }

// Len returns the number of buffered elements.
func (f *FIFO) Len() int { return f.count }

// Full reports whether a push would block.
func (f *FIFO) Full() bool { return f.count == f.capWords }

// Space returns how many more elements fit before a push would block.
func (f *FIFO) Space() int { return f.capWords - f.count }

// Push appends v, returning false if the FIFO is full (the pushing thread
// stalls). A successful push fires the OnPush activation. The ring
// indices wrap by compare, not modulo: push and pop run once per
// streamed element of every SpMV.
func (f *FIFO) Push(ar *Arena, v fp16.Float16) bool {
	if f.count == f.capWords {
		return false
	}
	ar.mem[f.baseOff+f.tail] = v
	if f.tail++; f.tail == f.capWords {
		f.tail = 0
	}
	f.count++
	if f.OnPush != nil {
		f.OnPush()
	}
	return true
}

// Pop removes and returns the oldest element; ok is false when empty.
func (f *FIFO) Pop(ar *Arena) (v fp16.Float16, ok bool) {
	if f.count == 0 {
		return 0, false
	}
	v = ar.mem[f.baseOff+f.head]
	if f.head++; f.head == f.capWords {
		f.head = 0
	}
	f.count--
	return v, true
}
