// Package stencilc compiles declarative stencil specifications into
// wafer tile programs. A Spec names the point set (star or box), the
// per-axis halo widths, the coefficient precision, the boundary rule
// and an optional fused reduction; Compile2D/Compile3D lower it onto a
// wse.Machine through one shared pipeline — block decomposition,
// halo-color allocation on the four single-hop directional colors,
// fixed-rounding-order MemOp emission, and relay-scheduled stream
// exchange rounds. The emitted program replays the functional
// reference's exact rounding order, so machine results are bitwise
// equal to the host reference (Reference2D, stencil.OpStarHalf.Apply)
// under both simulation engines, and each compiled shape carries an
// exact perfmodel cycle entry (perfmodel.StencilApply2D,
// perfmodel.StencilApply3D, pinned by tests in this package).
//
// A compiled program is one description with several readers: Program3D
// states its compute sequence and its relay rounds once (the terms and
// hops walks), and the cycle-simulated instructions, the fast-forward's
// shape, host evaluation and exchange copy all read them; the replayed
// stage lists are the perfmodel entry's own. Reference2D is the one
// functional reference of the 2D block-halo dataflow.
//
// The hand-written kernels predating the compiler — the 9-point 2D
// block-halo SpMV and the 7-point 3D halo-resident SpMV — are the specs
// Spec9Point and Spec7Point; the solvers of internal/kernels hold the
// compiled programs directly, pinned bit-identical to the pre-compiler
// outputs by golden tests. New kernels (the 25-point high-order seismic
// stencil, the 2D/3D heat-equation step) are specs plus coefficient
// builders; no tile program is written by hand.
package stencilc

import (
	"fmt"

	"repro/internal/stencil"
)

// Shape selects the spec's point set.
type Shape int

// Point-set shapes.
const (
	// Star includes the centre and the axis-aligned neighbours out to
	// the per-axis width: 1+2(wx+wy) points in 2D, 1+2(wx+wy+wz) in 3D.
	Star Shape = iota
	// Box includes every point of the full halo box. Only the 2D
	// unit-width box (the 9-point stencil) lowers to the machine: wider
	// or 3D boxes would need diagonal exchange channels.
	Box
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case Star:
		return "star"
	case Box:
		return "box"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// Precision selects the coefficient (and arithmetic) precision of the
// compiled program.
type Precision int

// Precisions.
const (
	// FP16 is the wafer's native storage: fp16 coefficients, fp16
	// multiplies and adds in the reference rounding order.
	FP16 Precision = iota
	// FP32 keeps coefficients in float32. Only the host references
	// evaluate it; tile arenas store fp16 words, so Compile2D/Compile3D
	// reject FP32 specs with an *UnsupportedError.
	FP32
)

// String names the precision.
func (p Precision) String() string {
	switch p {
	case FP16:
		return "fp16"
	case FP32:
		return "fp32"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

// Reduce selects an optional reduction fused after the stencil
// application.
type Reduce int

// Reductions.
const (
	// ReduceNone: the program computes the output field only.
	ReduceNone Reduce = iota
	// ReduceSumSq appends a per-tile mixed-precision dot of the output
	// with itself (fp32 accumulation, the CS-1 dot instruction). The
	// per-tile partials are read with Partials(); combine them with
	// cluster.ExactSum32 for a bit-stable global Σy². The heat driver
	// uses it to report field energy without a second pass.
	ReduceSumSq
)

// String names the reduction.
func (r Reduce) String() string {
	switch r {
	case ReduceNone:
		return "none"
	case ReduceSumSq:
		return "sumsq"
	default:
		return fmt.Sprintf("reduce(%d)", int(r))
	}
}

// MaxWidth bounds per-axis halo widths. The relay exchange reuses the
// four directional colors for every round, so the bound is not color
// pressure but per-tile memory (each lateral width adds four halo and
// four coefficient columns) and schedule length.
const MaxWidth = 8

// Spec declares a stencil kernel. The zero value is invalid; fill in
// Dim, Points and Widths (see the named constructors Spec9Point,
// Spec5Point, Spec7Point, SpecSeismic25, SpecHeat2D, SpecHeat3D).
type Spec struct {
	// Dim is the mesh dimensionality: 2 (block decomposition, one b×b
	// block per tile) or 3 (column decomposition, one Z-column per
	// tile).
	Dim int
	// Points is the point-set shape: Star or Box.
	Points Shape
	// Widths holds the per-axis halo widths (x, y, z); Widths[2] is
	// ignored when Dim == 2. 2D lowering supports unit widths only.
	Widths [3]int
	// Precision is the coefficient precision (FP16 lowers to the
	// machine; FP32 is host-reference only).
	Precision Precision
	// Boundary is the boundary rule. Dirichlet (zero truncation)
	// lowers to the machine; Periodic is host-reference only.
	Boundary stencil.Boundary
	// Reduce optionally fuses a reduction after the application.
	Reduce Reduce
}

// Named specs for the kernels the repository ships.

// Spec9Point is the 2D 9-point box stencil — the block-halo SpMV of the
// paper's §IV-2 sketch (kernels.BiCGStab2DWSE's SpMV).
func Spec9Point() Spec { return Spec{Dim: 2, Points: Box, Widths: [3]int{1, 1, 0}} }

// Spec5Point is the 2D 5-point star stencil — the heat-equation step's
// point set; four fewer MemOps per application than the box.
func Spec5Point() Spec { return Spec{Dim: 2, Points: Star, Widths: [3]int{1, 1, 0}} }

// Spec7Point is the 3D 7-point star stencil — the halo-resident SpMV
// the star solver runs and the multiwafer backend composes.
func Spec7Point() Spec { return Spec{Dim: 3, Points: Star, Widths: [3]int{1, 1, 1}} }

// SpecSeismic25 is the 25-point width-4 star of the high-order seismic
// stencil (Jacquelin et al.): an 8th-order Laplacian needing four relay
// exchange rounds per application.
func SpecSeismic25() Spec { return Spec{Dim: 3, Points: Star, Widths: [3]int{4, 4, 4}} }

// SpecHeat2D is the 2D heat-equation step: the 5-point star with the
// fused Σy² reduction the time-stepping driver reports as field energy.
func SpecHeat2D() Spec { s := Spec5Point(); s.Reduce = ReduceSumSq; return s }

// SpecHeat3D is the 3D heat-equation step: the 7-point star with the
// fused Σy² reduction.
func SpecHeat3D() Spec { s := Spec7Point(); s.Reduce = ReduceSumSq; return s }

// NumPoints returns the number of stencil points the spec names.
func (s Spec) NumPoints() int {
	w := s.Widths
	switch {
	case s.Dim == 2 && s.Points == Box:
		return (2*w[0] + 1) * (2*w[1] + 1)
	case s.Dim == 2:
		return 1 + 2*(w[0]+w[1])
	case s.Points == Box:
		return (2*w[0] + 1) * (2*w[1] + 1) * (2*w[2] + 1)
	default:
		return 1 + 2*(w[0]+w[1]+w[2])
	}
}

// Validate checks the spec's structural sanity: dimensionality, widths
// within [1, MaxWidth] on the used axes, and known enum values. It does
// not decide lowerability — Compile2D/Compile3D report that with
// *UnsupportedError, since a spec too general for the machine may still
// drive the host references.
func (s Spec) Validate() error {
	if s.Dim != 2 && s.Dim != 3 {
		return fmt.Errorf("stencilc: spec dimension must be 2 or 3, got %d", s.Dim)
	}
	axes := s.Dim
	for a := 0; a < axes; a++ {
		if s.Widths[a] < 1 || s.Widths[a] > MaxWidth {
			return fmt.Errorf("stencilc: axis-%c halo width %d out of range [1, %d]", "xyz"[a], s.Widths[a], MaxWidth)
		}
	}
	if s.Points != Star && s.Points != Box {
		return fmt.Errorf("stencilc: unknown point-set shape %d", int(s.Points))
	}
	if s.Precision != FP16 && s.Precision != FP32 {
		return fmt.Errorf("stencilc: unknown precision %d", int(s.Precision))
	}
	if s.Boundary != stencil.Dirichlet && s.Boundary != stencil.Periodic {
		return fmt.Errorf("stencilc: unknown boundary rule %d", int(s.Boundary))
	}
	if s.Reduce != ReduceNone && s.Reduce != ReduceSumSq {
		return fmt.Errorf("stencilc: unknown reduction %d", int(s.Reduce))
	}
	return nil
}

// UnsupportedError reports a valid spec the machine lowering cannot
// compile (the host references may still evaluate it). Callers branch
// with errors.As to distinguish "bad spec" from "spec beyond the
// wafer mapping".
type UnsupportedError struct {
	Spec   Spec
	Reason string
}

// Error implements error.
func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("stencilc: spec not lowerable to the machine: %s", e.Reason)
}

// unsupported builds an *UnsupportedError.
func unsupported(s Spec, format string, args ...any) error {
	return &UnsupportedError{Spec: s, Reason: fmt.Sprintf(format, args...)}
}

// Lowerable reports whether the machine lowering accepts the spec,
// with the same *UnsupportedError Compile2D/Compile3D would return.
// Callers that must build host-side structures before compiling (the
// wafer solver backends) use it to fail early instead of tripping the
// references' Dirichlet-only assertions.
func (s Spec) Lowerable() error { return s.checkLowerable() }

// checkLowerable holds the lowering constraints shared by both
// dimensionalities: fp16 storage and Dirichlet truncation. The
// dimension-specific compilers add their own (2D: unit widths; 3D:
// star points).
func (s Spec) checkLowerable() error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Precision != FP16 {
		return unsupported(s, "tile arenas store fp16 words; %s coefficients are host-reference only", s.Precision)
	}
	if s.Boundary != stencil.Dirichlet {
		return unsupported(s, "the exchange schedule has no wrap channels; %s boundaries are host-reference only", s.Boundary)
	}
	return nil
}

// points2D returns the 2D point set in row-major ascending offset
// order (the canonical scatter order; for the box this is exactly
// stencil.Off9).
func (s Spec) points2D() (pts [][2]int) {
	for dy := -s.Widths[1]; dy <= s.Widths[1]; dy++ {
		for dx := -s.Widths[0]; dx <= s.Widths[0]; dx++ {
			if s.Points == Star && dx != 0 && dy != 0 {
				continue
			}
			pts = append(pts, [2]int{dx, dy})
		}
	}
	return pts
}
