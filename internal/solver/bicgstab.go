package solver

import (
	stdctx "context"
	"errors"
	"fmt"
	"math"
)

// Options controls a Krylov solve on any Backend — the one options
// struct from core's pipeline down to the wafer solve loop
// (kernels.WSEOptions is this type).
type Options struct {
	// Ctx, if non-nil, is polled at iteration boundaries for cooperative
	// cancellation. A canceled solve returns an error wrapping
	// Ctx.Err(), so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) distinguish cancels from
	// deadline expiries. (The field is not named Context because that
	// name is taken by the arithmetic Context interface.)
	Ctx stdctx.Context
	// MaxIter bounds the number of iterations; 0 means 1000.
	MaxIter int
	// Tol is the convergence threshold on the iterative relative residual
	// ‖r‖/‖b‖ (diagnosed in float64). Tol <= 0 disables early exit, which
	// Figure 9 uses to run a fixed number of iterations.
	Tol float64
	// RecordHistory stores the relative residual after every iteration
	// in Stats.History. (The wafer solve loop always keeps its
	// WSEStats.History; the flag decides whether a Backend hands it on.)
	RecordHistory bool
	// TrueResidual, if non-nil, is called after each iteration with the
	// current iterate to record an externally computed residual (for
	// example, in full float64 against the original operator). Host
	// contexts only: the wafer iterate lives in tile memory.
	TrueResidual func(x Vector) float64
	// Progress, if non-nil, is called after every iteration with the
	// 1-based iteration number and the relative residual just recorded.
	// It is purely observational (the service layer streams it to
	// clients) and must not mutate solver state.
	Progress func(iter int, rel float64)
	// CheckpointEvery > 0 with a non-nil Checkpoint cuts an encoded
	// kernels.WSECheckpoint (machine snapshot plus recurrence scalars) at
	// the top of every CheckpointEvery-th iteration and passes it to the
	// callback; a callback error aborts the solve. Resume, if non-nil, is
	// such a blob: the solve restores the snapshot and continues from the
	// captured iteration, bit-identically to the uninterrupted solve (the
	// right-hand side must be the one the checkpointed solve started
	// with). Only a one-machine wafer substrate can be restored; every
	// other backend rejects these three (RejectCheckpoint) rather than
	// silently ignoring them.
	CheckpointEvery int
	Checkpoint      func([]byte) error
	Resume          []byte
}

func (o Options) maxIter() int {
	if o.MaxIter <= 0 {
		return 1000
	}
	return o.MaxIter
}

// CtxErr returns a wrapped context error when the solve's context is
// done, or nil. Every backend polls it at iteration boundaries — the
// only points where a simulated machine is guaranteed idle, so a
// canceled solve always leaves its substrate in a reusable state.
func (o Options) CtxErr() error {
	if o.Ctx == nil {
		return nil
	}
	if err := o.Ctx.Err(); err != nil {
		return fmt.Errorf("solver: solve canceled: %w", err)
	}
	return nil
}

// CheckpointRequested reports whether any of the checkpoint/resume
// options is set. Backends without a restorable substrate use it (via
// RejectCheckpoint) to refuse the solve instead of silently dropping
// the request.
func (o Options) CheckpointRequested() bool {
	return o.CheckpointEvery > 0 || o.Checkpoint != nil || o.Resume != nil
}

// RejectCheckpoint returns the canonical error for a backend that
// cannot checkpoint or resume, or nil when no checkpoint option is
// set. Every non-wafer backend (the host contexts, the multi-wafer
// cluster, core.Solve's routing) calls this one helper, so the error
// text and the notion of "checkpointing was requested" cannot drift
// between layers.
func (o Options) RejectCheckpoint(backend string) error {
	if !o.CheckpointRequested() {
		return nil
	}
	return fmt.Errorf("solver: %s backend does not support checkpoint/resume (wafer backends only)", backend)
}

// Stats reports the outcome of a solve.
type Stats struct {
	Iterations int
	Converged  bool
	// Breakdown is non-empty if the recurrence hit an exact zero
	// denominator (ρ or ω), after which iterates stop changing.
	Breakdown string
	// FinalResidual is the iterative relative residual at exit.
	FinalResidual float64
	// History[i] is the iterative relative residual after iteration i+1.
	History []float64
	// TrueHistory mirrors History using the Options.TrueResidual callback.
	TrueHistory []float64
}

// ErrZeroRHS is returned when b has zero norm; the solution is x = 0.
var ErrZeroRHS = errors.New("solver: right-hand side has zero norm")

// BiCGStab solves A·x = b with van der Vorst's stabilized bi-conjugate
// gradient method, Algorithm 1 of the paper. x holds the initial guess on
// entry and the solution on exit. The kernel structure per iteration is
// exactly the paper's accounting: 2 matvecs, 4 dots, 6 AXPY-class updates.
func BiCGStab(ctx Context, a Operator, b, x Vector, opts Options) (Stats, error) {
	n := b.Len()
	if x.Len() != n {
		return Stats{}, fmt.Errorf("solver: dimension mismatch: b %d, x %d", n, x.Len())
	}
	c := ctx.Counters()

	r0 := ctx.NewVector(n) // shadow residual, fixed
	r := ctx.NewVector(n)
	p := ctx.NewVector(n)
	s := ctx.NewVector(n) // s_i = A p_i
	q := ctx.NewVector(n)
	y := ctx.NewVector(n) // y_i = A q_i

	// r0 := b − A·x0. With the customary x0 = 0 this is r0 := b (line 2).
	c.SetKind(KindMatvec)
	a.Apply(s, x)
	c.SetKind(KindAxpy)
	r.SetAXPY(-1, s, b) // r = b − A x0
	r0.CopyFrom(r)
	p.CopyFrom(r)

	c.SetKind(KindDot)
	bnorm := math.Sqrt(b.Dot(b))
	if bnorm == 0 {
		return Stats{}, ErrZeroRHS
	}
	rho := r0.Dot(r) // (r0, r0)
	c.SetKind(KindOther)

	st := Stats{}
	record := func() {
		rel := Norm2(r) / bnorm
		st.FinalResidual = rel
		if opts.RecordHistory {
			st.History = append(st.History, rel)
		}
		if opts.TrueResidual != nil {
			st.TrueHistory = append(st.TrueHistory, opts.TrueResidual(x))
		}
		if opts.Progress != nil {
			opts.Progress(st.Iterations, rel)
		}
	}

	for it := 0; it < opts.maxIter(); it++ {
		if err := opts.CtxErr(); err != nil {
			return st, err
		}
		st.Iterations = it + 1

		// s_i := A p_i  (line 4)
		c.SetKind(KindMatvec)
		a.Apply(s, p)

		// α_i := (r0, r_i) / (r0, s_i)  (line 5)
		c.SetKind(KindDot)
		r0s := r0.Dot(s)
		if r0s == 0 {
			st.Breakdown = "r0·Ap = 0"
			record()
			return st, nil
		}
		alpha := rho / r0s

		// q_i := r_i − α_i s_i  (line 6)
		c.SetKind(KindAxpy)
		q.SetAXPY(-alpha, s, r)

		// y_i := A q_i  (line 7)
		c.SetKind(KindMatvec)
		a.Apply(y, q)

		// ω_i := (q_i, y_i) / (y_i, y_i)  (line 8)
		c.SetKind(KindDot)
		qy := q.Dot(y)
		yy := y.Dot(y)
		if yy == 0 {
			// y = 0 means q = 0 up to roundoff: x + αp is the answer.
			c.SetKind(KindAxpy)
			x.AXPY(alpha, p)
			r.CopyFrom(q)
			st.Breakdown = "y·y = 0"
			record()
			return st, nil
		}
		omega := qy / yy

		// x_i := x_i + α_i p_i + ω_i q_i  (line 9) — two AXPYs
		c.SetKind(KindAxpy)
		x.AXPY(alpha, p)
		x.AXPY(omega, q)

		// r_{i+1} := q_i − ω_i y_i  (line 10)
		r.SetAXPY(-omega, y, q)

		record()
		if opts.Tol > 0 && st.FinalResidual <= opts.Tol {
			st.Converged = true
			return st, nil
		}

		// β_i := (α_i/ω_i) · (r0, r_{i+1})/(r0, r_i)  (line 11)
		c.SetKind(KindDot)
		rhoNew := r0.Dot(r)
		if rho == 0 || omega == 0 {
			st.Breakdown = "rho or omega = 0"
			return st, nil
		}
		beta := (alpha / omega) * (rhoNew / rho)
		rho = rhoNew

		// p_{i+1} := r_{i+1} + β(p_i − ω s_i)  (line 12) — two AXPYs
		c.SetKind(KindAxpy)
		p.AXPY(-omega, s)
		p.XPAY(beta, r)
		c.SetKind(KindOther)
	}
	st.Converged = opts.Tol > 0 && st.FinalResidual <= opts.Tol
	return st, nil
}

// CG solves A·x = b with the conjugate gradient method for symmetric
// positive definite A. It exists as a substrate comparison point (the
// paper presents BiCGStab as the CG extension for nonsymmetric systems).
func CG(ctx Context, a Operator, b, x Vector, opts Options) (Stats, error) {
	n := b.Len()
	c := ctx.Counters()

	r := ctx.NewVector(n)
	p := ctx.NewVector(n)
	ap := ctx.NewVector(n)

	c.SetKind(KindMatvec)
	a.Apply(ap, x)
	c.SetKind(KindAxpy)
	r.SetAXPY(-1, ap, b)
	p.CopyFrom(r)

	c.SetKind(KindDot)
	bnorm := math.Sqrt(b.Dot(b))
	if bnorm == 0 {
		return Stats{}, ErrZeroRHS
	}
	rr := r.Dot(r)
	c.SetKind(KindOther)

	st := Stats{}
	for it := 0; it < opts.maxIter(); it++ {
		if err := opts.CtxErr(); err != nil {
			return st, err
		}
		st.Iterations = it + 1
		c.SetKind(KindMatvec)
		a.Apply(ap, p)
		c.SetKind(KindDot)
		pap := p.Dot(ap)
		if pap == 0 {
			st.Breakdown = "p·Ap = 0"
			return st, nil
		}
		alpha := rr / pap
		c.SetKind(KindAxpy)
		x.AXPY(alpha, p)
		r.AXPY(-alpha, ap)

		rel := Norm2(r) / bnorm
		st.FinalResidual = rel
		if opts.RecordHistory {
			st.History = append(st.History, rel)
		}
		if opts.TrueResidual != nil {
			st.TrueHistory = append(st.TrueHistory, opts.TrueResidual(x))
		}
		if opts.Progress != nil {
			opts.Progress(st.Iterations, rel)
		}
		if opts.Tol > 0 && rel <= opts.Tol {
			st.Converged = true
			return st, nil
		}
		c.SetKind(KindDot)
		rrNew := r.Dot(r)
		if rr == 0 {
			st.Breakdown = "r·r = 0"
			return st, nil
		}
		beta := rrNew / rr
		rr = rrNew
		c.SetKind(KindAxpy)
		p.XPAY(beta, r)
		c.SetKind(KindOther)
	}
	return st, nil
}
