package stencilc

import (
	"fmt"

	"repro/internal/fp16"
	"repro/internal/stencil"
)

// Reference2D is the functional reference of the 2D block-halo program:
// a host replay of the compiled dataflow — per-block scatter in point
// order, then the ±x column folds, then the ±y row folds — with fp16
// arithmetic at every step. Because each fold adds each halo element
// into a distinct accumulator cell exactly once, phase order within a
// round cannot change a result bit, so this sequential replay is
// bitwise equal to the concurrent machine under either engine; the
// equivalence and fuzz tests pin that. src and the returned result are
// mesh row-major; b is the block edge of the replayed decomposition
// (the mesh must tile into b×b blocks — the fold pattern, and therefore
// the bit pattern, depends on where the block seams fall).
func Reference2D(spec Spec, op *stencil.Op9, b int, src []fp16.Float16) ([]fp16.Float16, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Dim != 2 || spec.Widths[0] != 1 || spec.Widths[1] != 1 {
		return nil, fmt.Errorf("stencilc: Reference2D replays the unit-width block program, not %v", spec.Widths)
	}
	m := op.M
	if b < 1 || m.NX%b != 0 || m.NY%b != 0 {
		return nil, fmt.Errorf("stencilc: mesh %dx%d does not tile into %d×%d blocks", m.NX, m.NY, b, b)
	}
	if len(src) != m.N() {
		return nil, fmt.Errorf("stencilc: source length %d, want %d", len(src), m.N())
	}
	if !op.IsUnitDiagonal() {
		return nil, fmt.Errorf("stencilc: the block program requires a unit centre coefficient")
	}
	points := spec.points2D()
	w, h := m.NX/b, m.NY/b
	e := b + 2
	ext := make([][]fp16.Float16, w*h)
	for t := range ext {
		ext[t] = make([]fp16.Float16, e*e)
	}

	// Phase 1 — per-block scatter, one pass per stencil point, exactly
	// the tile program's OpMulAcc order: dst = Add(dst, Mul(v, c)) with
	// the coefficient sampled at the destination point, zero beyond the
	// mesh.
	for ty := 0; ty < h; ty++ {
		for tx := 0; tx < w; tx++ {
			x := ext[ty*w+tx]
			for _, off := range points {
				k := off9Index(off)
				dx, dy := -off[0], -off[1]
				for j := 0; j < b; j++ {
					for i := 0; i < b; i++ {
						gx, gy := tx*b+i, ty*b+j
						px, py := gx-off[0], gy-off[1]
						c := fp16.Zero
						if m.In(px, py) {
							c = fp16.FromFloat64(op.C[k][m.Index(px, py)])
						}
						d := (i + dx + 1) + (j+dy+1)*e
						x[d] = fp16.Add(x[d], fp16.Mul(src[m.Index(gx, gy)], c))
					}
				}
			}
		}
	}

	// Phase 2 — ±x folds: each tile accumulates the neighbouring halo
	// columns (height b+2) into its edge columns. The folded source
	// columns (i = -1 and i = b) are never written by this phase, so an
	// in-place sequential sweep replays the concurrent exchange exactly.
	at := func(t, i, j int) int { return (i + 1) + (j+1)*e }
	for ty := 0; ty < h; ty++ {
		for tx := 0; tx < w; tx++ {
			x := ext[ty*w+tx]
			if tx > 0 {
				west := ext[ty*w+tx-1]
				for j := -1; j <= b; j++ {
					x[at(0, 0, j)] = fp16.Add(x[at(0, 0, j)], west[at(0, b, j)])
				}
			}
			if tx < w-1 {
				east := ext[ty*w+tx+1]
				for j := -1; j <= b; j++ {
					x[at(0, b-1, j)] = fp16.Add(x[at(0, b-1, j)], east[at(0, -1, j)])
				}
			}
		}
	}

	// Phase 3 — ±y folds: rows of width b (corners already travelled
	// with the x round). The folded rows (j = -1 and j = b) are written
	// only by phase 2, which has fully completed.
	for ty := 0; ty < h; ty++ {
		for tx := 0; tx < w; tx++ {
			x := ext[ty*w+tx]
			if ty > 0 {
				north := ext[(ty-1)*w+tx]
				for i := 0; i < b; i++ {
					x[at(0, i, 0)] = fp16.Add(x[at(0, i, 0)], north[at(0, i, b)])
				}
			}
			if ty < h-1 {
				south := ext[(ty+1)*w+tx]
				for i := 0; i < b; i++ {
					x[at(0, i, b-1)] = fp16.Add(x[at(0, i, b-1)], south[at(0, i, -1)])
				}
			}
		}
	}

	out := make([]fp16.Float16, m.N())
	for ty := 0; ty < h; ty++ {
		for tx := 0; tx < w; tx++ {
			x := ext[ty*w+tx]
			for j := 0; j < b; j++ {
				for i := 0; i < b; i++ {
					out[m.Index(tx*b+i, ty*b+j)] = x[at(0, i, j)]
				}
			}
		}
	}
	return out, nil
}
