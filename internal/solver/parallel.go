package solver

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/stencil"
)

// ParallelContext is the rank-parallel image of an inner context (see
// Parallel).
type ParallelContext struct {
	inner Context
	// rank[r] is rank r's own copy of the inner arithmetic: the views it
	// works on book their operations there, and each folds them into the
	// inner context's counters after the join.
	rank []Context
	acc  []*cluster.ExactAcc // one dot partial per rank
	// newCols builds the inner precision's image of an operator as an
	// uncounted column-range apply.
	newCols func(o *stencil.Op7) func(dst, src Vector, c0, c1 int)
	chunk   int // the inner Mixed context's dot chunk; 0 for fp64

	// The mesh NewOperator bound: rank r owns columns
	// [bounds[r], bounds[r+1]) of NZ elements each.
	mesh   stencil.Mesh
	bounds []int
}

// rangeVec is what Parallel needs of an inner vector beyond Vector: a
// view of an element range bound to a rank's context, the dot's exact
// partial over the receiver (unaccounted), and the dot's accounting.
type rangeVec interface {
	Vector
	slice(lo, hi int, ctx Context) Vector
	dotExact(x Vector, acc *cluster.ExactAcc)
	countDot()
}

// Parallel returns a context that runs inner's arithmetic on ranks
// goroutine-ranks: the mesh's NX·NY columns are cut into ranks
// contiguous ranges (cluster.SplitExtent, uneven splits allowed) and
// every AXPY-class update, dot partial and operator application forks
// one goroutine per range and joins before it returns. The recurrence
// itself — the one BiCGStab — runs on the calling goroutine, the host
// image of the wafer solve loop's one loop over parts, so cancellation,
// progress, breakdown and history handling are BiCGStab's own.
//
// No result depends on the rank count: elementwise operations are the
// inner context's, element for element; the operator reads the whole
// source vector (stencil.Op7.ApplyColumns); and every dot is merged
// from per-rank cluster.ExactAcc partials and rounded once. That last
// point is why inner must be a context whose sequential dot is such a
// sum — NewF64Exact or NewMixedChunked, whose chunk must divide NZ so
// whole columns are whole chunks. Any other context is refused: a
// rank-ordered sum of rounded partials would tie the history to ranks.
//
// The context is bound to one mesh at a time, by NewOperator; vectors
// are for the mesh bound when they were made.
func Parallel(inner Context, ranks int) (*ParallelContext, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("solver: Parallel needs at least one rank, got %d", ranks)
	}
	p := &ParallelContext{inner: inner}
	var fork func() Context
	switch c := inner.(type) {
	case *F64:
		if c.acc != nil {
			fork = func() Context { return NewF64Exact() }
			p.newCols = func(o *stencil.Op7) func(dst, src Vector, c0, c1 int) {
				requireUnitDiagonal(o)
				return func(dst, src Vector, c0, c1 int) {
					o.ApplyColumns(dst.(*f64Vec).d, src.(*f64Vec).d, c0, c1)
				}
			}
		}
	case *Mixed:
		if c.chunk > 0 {
			fork = func() Context { return NewMixedChunked(c.chunk) }
			p.chunk = c.chunk
			p.newCols = func(o *stencil.Op7) func(dst, src Vector, c0, c1 int) {
				h := stencil.NewOp7Half(o)
				return func(dst, src Vector, c0, c1 int) {
					h.ApplyColumns(dst.(*mixedVec).d, src.(*mixedVec).d, c0, c1)
				}
			}
		}
	}
	if fork == nil {
		return nil, fmt.Errorf("solver: Parallel needs a context with exactly combined dots (NewF64Exact, NewMixedChunked), got %s", inner.Name())
	}
	for r := 0; r < ranks; r++ {
		p.rank = append(p.rank, fork())
		p.acc = append(p.acc, cluster.NewExactAcc())
	}
	return p, nil
}

// Ranks returns the number of goroutine-ranks.
func (p *ParallelContext) Ranks() int { return len(p.rank) }

// Name implements Context.
func (p *ParallelContext) Name() string { return fmt.Sprintf("%s/r%d", p.inner.Name(), len(p.rank)) }

// Counters implements Context: the inner context's, which every
// operation's per-rank counts are folded into.
func (p *ParallelContext) Counters() *Counters { return p.inner.Counters() }

// CheckMesh reports whether the ranks can share m: each needs at least
// one column, and a chunked dot needs whole chunks per column.
func (p *ParallelContext) CheckMesh(m stencil.Mesh) error {
	if cols := m.NX * m.NY; len(p.rank) > cols {
		return fmt.Errorf("solver: %d ranks for the %d columns of a %v mesh", len(p.rank), cols, m)
	}
	if p.chunk > 0 && m.NZ%p.chunk != 0 {
		return fmt.Errorf("solver: dot chunk %d does not divide NZ = %d, so column ranges would split chunks", p.chunk, m.NZ)
	}
	return nil
}

// NewOperator implements Context and binds the context to o's mesh. It
// panics where CheckMesh reports an error (Host.Solve checks first).
func (p *ParallelContext) NewOperator(o *stencil.Op7) Operator {
	if err := p.CheckMesh(o.M); err != nil {
		panic(err.Error())
	}
	p.mesh = o.M
	p.bounds = make([]int, 1, len(p.rank)+1)
	for _, sz := range cluster.SplitExtent(o.M.NX*o.M.NY, len(p.rank)) {
		p.bounds = append(p.bounds, p.bounds[len(p.bounds)-1]+sz)
	}
	return &parOp{p: p, cols: p.newCols(o)}
}

// NewVector implements Context for the bound mesh.
func (p *ParallelContext) NewVector(n int) Vector {
	if p.bounds == nil || n != p.mesh.N() {
		panic(fmt.Sprintf("solver: Parallel vector of %d elements on a %v mesh (NewOperator binds the mesh)", n, p.mesh))
	}
	v := &parVec{p: p, full: p.inner.NewVector(n).(rangeVec)}
	for r, ctx := range p.rank {
		v.parts = append(v.parts, v.full.slice(p.bounds[r]*p.mesh.NZ, p.bounds[r+1]*p.mesh.NZ, ctx).(rangeVec))
	}
	return v
}

// each runs f once per rank — rank 0 on the calling goroutine — and
// joins, then folds what the ranks booked into the inner counters.
func (p *ParallelContext) each(f func(r int)) {
	c := p.inner.Counters()
	for _, ctx := range p.rank {
		ctx.Counters().kind = c.kind
	}
	var wg sync.WaitGroup
	for r := 1; r < len(p.rank); r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(r)
		}()
	}
	f(0)
	wg.Wait()
	for _, ctx := range p.rank {
		rc := ctx.Counters()
		for k := range c.ByKind {
			c.ByKind[k].Add(rc.ByKind[k])
		}
		rc.Reset()
	}
}

// dot merges the ranks' exact partials of <a, b> and rounds once.
func (p *ParallelContext) dot(a, b *parVec) float64 {
	p.each(func(r int) {
		p.acc[r].Reset()
		a.parts[r].dotExact(b.parts[r], p.acc[r])
	})
	for _, part := range p.acc[1:] {
		p.acc[0].Merge(part)
	}
	return p.acc[0].Float64()
}

// parVec is an inner vector plus one view per rank.
type parVec struct {
	p     *ParallelContext
	full  rangeVec
	parts []rangeVec
}

func (v *parVec) Len() int             { return v.full.Len() }
func (v *parVec) At(i int) float64     { return v.full.At(i) }
func (v *parVec) Set(i int, x float64) { v.full.Set(i, x) }
func (v *parVec) Float64() []float64   { return v.full.Float64() }
func (v *parVec) CopyFrom(src Vector)  { v.full.CopyFrom(src.(*parVec).full) }

func (v *parVec) AXPY(a float64, x Vector) {
	xs := x.(*parVec).parts
	v.p.each(func(r int) { v.parts[r].AXPY(a, xs[r]) })
}

func (v *parVec) SetAXPY(a float64, x, z Vector) {
	xs, zs := x.(*parVec).parts, z.(*parVec).parts
	v.p.each(func(r int) { v.parts[r].SetAXPY(a, xs[r], zs[r]) })
}

func (v *parVec) XPAY(a float64, x Vector) {
	xs := x.(*parVec).parts
	v.p.each(func(r int) { v.parts[r].XPAY(a, xs[r]) })
}

func (v *parVec) Dot(x Vector) float64 {
	v.full.countDot()
	return v.p.dot(v, x.(*parVec))
}

// norm2 is Norm2's hook: over the exact fp64 context the residual norm
// is √(v·v) with the merged dot, as the sequential context reports it;
// the mixed context has no hook and Norm2 walks the full vector.
func (v *parVec) norm2() (float64, bool) {
	if v.p.chunk > 0 {
		return 0, false
	}
	return math.Sqrt(v.p.dot(v, v)), true
}

// parOp applies the operator one column range per rank: ranks write
// disjoint columns of dst and only read src.
type parOp struct {
	p    *ParallelContext
	cols func(dst, src Vector, c0, c1 int)
}

func (o *parOp) Apply(dst, src Vector) {
	d, s := dst.(*parVec).full, src.(*parVec).full
	o.p.each(func(r int) { o.cols(d, s, o.p.bounds[r], o.p.bounds[r+1]) })
	countMatvec(o.p.inner.Counters(), o.p.mesh.N(), o.p.chunk > 0)
}
