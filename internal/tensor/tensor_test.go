package tensor

import (
	"testing"
	"testing/quick"

	"repro/internal/fp16"
)

func TestVec1D(t *testing.T) {
	d := Vec1D(10, 5)
	want := []int{10, 11, 12, 13, 14}
	got := d.Offsets()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("offset[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestStrided(t *testing.T) {
	d := Strided(0, 4, 3)
	want := []int{0, 3, 6, 9}
	for i, o := range d.Offsets() {
		if o != want[i] {
			t.Errorf("offset[%d] = %d, want %d", i, o, want[i])
		}
	}
}

func TestMultiDim(t *testing.T) {
	// 2x3 row-major tensor with row stride 8 (padded rows).
	d := Descriptor{
		Base:   100,
		Shape:  [MaxDims]int{1, 1, 2, 3},
		Stride: [MaxDims]int{0, 0, 8, 1},
	}
	want := []int{100, 101, 102, 108, 109, 110}
	got := d.Offsets()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("offset[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if d.Len() != 6 {
		t.Errorf("Len = %d, want 6", d.Len())
	}
}

func TestDescriptorPanicsPastEnd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic advancing exhausted descriptor")
		}
	}()
	d := Vec1D(0, 1)
	d.Next()
	d.Next()
}

func TestDescriptorProperties(t *testing.T) {
	// The address sequence of a strided descriptor is an arithmetic
	// progression; the zero-outer-stride trick returns to start.
	f := func(base uint8, n uint8, stride uint8) bool {
		nn := int(n%32) + 1
		st := int(stride % 7)
		d := Strided(int(base), nn, st)
		offs := d.Offsets()
		if len(offs) != nn {
			return false
		}
		for i, o := range offs {
			if o != int(base)+i*st {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestArenaBudget(t *testing.T) {
	a := NewArena(48 * 1024)
	// The paper's 3D layout: 6 matrix diagonals + v,u (with padding) + 5
	// FIFO buffers of 20. At Z = 1536 the matrix+vector data is ~31 KB.
	z := 1536
	words := 0
	for _, n := range []int{z, z, z, z, z, z + 1, z + 1, z + 2} {
		if _, err := a.Alloc("vec", n); err != nil {
			t.Fatalf("alloc failed: %v", err)
		}
		words += n
	}
	if a.Used() != words*BytesPerWord {
		t.Errorf("Used = %d, want %d", a.Used(), words*BytesPerWord)
	}
	// 10 Z-length vectors ~ 31KB fits; but 25 do not.
	b := NewArena(48 * 1024)
	for i := 0; i < 16; i++ {
		if _, err := b.Alloc("v", z); err != nil {
			return // expected to fail at the 17th (16*1536*2 = 49152 > 49152? exactly)
		}
	}
	if _, err := b.Alloc("v", z); err == nil {
		t.Error("arena should have rejected allocation beyond 48KB")
	}
}

func TestArenaSliceAliasing(t *testing.T) {
	a := NewArena(1024)
	base := a.MustAlloc("x", 8)
	s := a.Slice(base, 8)
	s[3] = fp16.One
	if a.At(base+3) != fp16.One {
		t.Error("Slice writes must be visible through At")
	}
}

func TestShiftedDescriptorsForZStencil(t *testing.T) {
	// The SpMV listing's zp/zm accumulators alias u shifted by one:
	// zp_acc base u+2, zm_acc base u+0, center u+1. Verify shift algebra:
	// with v padded by one zero, u[k] accumulates v[k-1]*zm + v[k+1]*zp.
	a := NewArena(4096)
	z := 8
	vb := a.MustAlloc("v", z+1) // v[z] = 0 pad
	ub := a.MustAlloc("u", z+2)
	zmb := a.MustAlloc("zm", z+1) // padded like the listing
	zpb := a.MustAlloc("zp", z)
	for i := 0; i < z; i++ {
		a.Set(vb+i, fp16.FromFloat64(float64(i+1)))
		a.Set(zpb+i, fp16.FromFloat64(2))
	}
	for i := 0; i < z+1; i++ {
		a.Set(zmb+i, fp16.FromFloat64(3))
	}
	// u[0..z+1] zero; zm pass: u[k] += v0[k]*zm[k] with zm_acc base u+0
	// over Z+1 elements; zp pass: u[k+2] += v[k]*zp[k].
	// The two passes as descriptor walks, one rounding per element (the
	// instruction forms are wse.MemOp's; this test is about the shifts).
	zmAcc, v0, zmA := Vec1D(ub, z+1), Vec1D(vb, z+1), Vec1D(zmb, z+1)
	for !zmAcc.Done() {
		a.Set(zmAcc.Next(), fp16.Mul(a.At(v0.Next()), a.At(zmA.Next())))
	}
	zpAcc, v1, zpA := Vec1D(ub+2, z), Vec1D(vb, z), Vec1D(zpb, z)
	for !zpAcc.Done() {
		p := zpAcc.Next()
		a.Set(p, fp16.Add(a.At(p), fp16.Mul(a.At(v1.Next()), a.At(zpA.Next()))))
	}

	// Interior result u[k+1] (k = 0..z-1) should be 3*v[k+1] + 2*v[k-1]
	// where out-of-range v is zero.
	for k := 0; k < z; k++ {
		var want float64
		if k+1 < z {
			want += 3 * float64(k+2)
		}
		if k-1 >= 0 {
			want += 2 * float64(k)
		}
		got := a.At(ub + 1 + k).Float64()
		if got != want {
			t.Errorf("u[%d] = %g, want %g", k+1, got, want)
		}
	}
}

func TestFIFO(t *testing.T) {
	a := NewArena(1024)
	base := a.MustAlloc("fifo", 4)
	f := NewFIFO(base, 4)
	activations := 0
	f.OnPush = func() { activations++ }

	if _, ok := f.Pop(a); ok {
		t.Error("pop of empty FIFO should fail")
	}
	for i := 0; i < 4; i++ {
		if !f.Push(a, fp16.FromFloat64(float64(i))) {
			t.Fatalf("push %d failed", i)
		}
	}
	if f.Push(a, fp16.One) {
		t.Error("push to full FIFO should fail (thread stalls)")
	}
	if activations != 4 {
		t.Errorf("activations = %d, want 4", activations)
	}
	for i := 0; i < 4; i++ {
		v, ok := f.Pop(a)
		if !ok || v.Float64() != float64(i) {
			t.Fatalf("pop %d = %v, %v", i, v, ok)
		}
	}
	// Wraparound.
	for i := 0; i < 6; i++ {
		f.Push(a, fp16.FromFloat64(float64(10+i)))
		v, ok := f.Pop(a)
		if !ok || v.Float64() != float64(10+i) {
			t.Fatalf("wrap pop %d", i)
		}
	}
}

func TestFIFOQuick(t *testing.T) {
	// Model-based: FIFO behaves like a bounded queue.
	f := func(ops []bool) bool {
		a := NewArena(256)
		base := a.MustAlloc("f", 5)
		q := NewFIFO(base, 5)
		var model []float64
		next := 0.0
		for _, push := range ops {
			if push {
				ok := q.Push(a, fp16.FromFloat64(next))
				if ok != (len(model) < 5) {
					return false
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := q.Pop(a)
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v.Float64() != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestConstructorLenMatchesLiteral pins the length the constructors
// cache to what a literal of the same shape computes on demand,
// degenerate extents included (a zero extent is an empty operand).
func TestConstructorLenMatchesLiteral(t *testing.T) {
	for _, d := range []Descriptor{
		Vec1D(3, 0), Vec1D(3, 1), Vec1D(3, 17), Strided(0, 5, 3), Strided(0, 1, 0),
		Mat2D(2, 4, 6, 10), Mat2D(2, 1, 6, 10), Mat2D(2, 4, 0, 10),
	} {
		lit := Descriptor{Base: d.Base, Shape: d.Shape, Stride: d.Stride}
		if d.Len() != lit.Len() || len(d.Offsets()) != len(lit.Offsets()) {
			t.Errorf("shape %v: constructor Len %d / %d offsets, literal Len %d / %d offsets",
				d.Shape, d.Len(), len(d.Offsets()), lit.Len(), len(lit.Offsets()))
		}
	}
}

// TestZeroExtent pins the empty operand: a zero extent anywhere gives
// Len 0 and Done at once — an instruction that sizes its loop as
// min(lanes, left, ...) must not read one element of it — and a
// negative extent is a construction bug.
func TestZeroExtent(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Descriptor
		want int
	}{
		{"Vec1D(5,0)", Vec1D(5, 0), 0},
		{"Vec1D(5,1)", Vec1D(5, 1), 1},
		{"Strided(0,0,3)", Strided(0, 0, 3), 0},
		{"Mat2D(0,0,4,4)", Mat2D(0, 0, 4, 4), 0},
		{"Mat2D(0,4,0,4)", Mat2D(0, 4, 0, 4), 0},
		{"Mat2D(0,1,4,4)", Mat2D(0, 1, 4, 4), 4},
		{"literal {1,1,0,4}", Descriptor{Shape: [MaxDims]int{1, 1, 0, 4}, Stride: [MaxDims]int{0, 0, 4, 1}}, 0},
		{"literal {1,1,1,3}", Descriptor{Shape: [MaxDims]int{1, 1, 1, 3}, Stride: [MaxDims]int{0, 0, 0, 1}}, 3},
	} {
		d := tc.d
		if d.Len() != tc.want || d.Done() != (tc.want == 0) || len(d.Offsets()) != tc.want {
			t.Errorf("%s: Len %d, Done %v, %d offsets; want %d elements", tc.name, d.Len(), d.Done(), len(d.Offsets()), tc.want)
		}
		if tc.want == 0 && d.Contig() {
			d.SkipContig(0) // a no-op, not a panic
		}
	}
	for name, build := range map[string]func(){
		"Vec1D":   func() { Vec1D(0, -1) },
		"Strided": func() { Strided(0, -2, 1) },
		"Mat2D":   func() { Mat2D(0, 2, -1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a negative extent did not panic", name)
				}
			}()
			build()
		}()
	}
}
