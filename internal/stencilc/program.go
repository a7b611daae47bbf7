package stencilc

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/tensor"
	"repro/internal/wse"
)

// program is what the two lowerings have in common: the machine, the
// spec, the four exchange colors from base, and per tile (fabric
// row-major) the completion flag Run waits on and the fused reduction's
// partial. Program2D and Program3D embed it.
type program struct {
	M    *wse.Machine
	Spec Spec

	base     fabric.Color
	arm      func(ti int) // prepares tile ti for one application
	done     []bool
	partials []float32 // per-tile Σy² when Spec.Reduce == ReduceSumSq
}

// newProgram claims the exchange colors starting at base and programs
// the four single-hop directional streams both lowerings exchange over
// (relay rounds reuse them).
func newProgram(mach *wse.Machine, spec Spec, base fabric.Color) (program, error) {
	if int(base)+NumExchangeColors > fabric.MaxColors {
		return program{}, fmt.Errorf("stencilc: halo exchange needs %d colors starting at %d", NumExchangeColors, base)
	}
	w, h := mach.Cfg.FabricW, mach.Cfg.FabricH
	RouteExchange(mach.Fab, w, h, base)
	p := program{M: mach, Spec: spec, base: base, done: make([]bool, w*h)}
	if spec.Reduce == ReduceSumSq {
		p.partials = make([]float32, w*h)
	}
	return p, nil
}

// Tiles returns the tile count (fabric row-major indexing).
func (p *program) Tiles() int { return len(p.done) }

// Partials returns the per-tile Σy² partials of the last Run (fabric
// row-major), valid only for ReduceSumSq specs. Combine them with
// cluster.ExactSum32 for a bit-stable global reduction.
func (p *program) Partials() []float32 { return p.partials }

// Arm prepares every tile for one application without stepping the
// machine — for lock-step engine-equivalence tests that drive Step
// themselves. Run calls it implicitly.
func (p *program) Arm() {
	for ti := range p.done {
		p.arm(ti)
	}
}

// Done reports whether every tile has completed its application (the
// predicate Run waits on).
func (p *program) Done() bool {
	for _, d := range p.done {
		if !d {
			return false
		}
	}
	return true
}

// Run executes one application under cycle simulation and returns the
// cycles it took: every tile's tasks and exchange rounds — and, for
// ReduceSumSq specs, the fused dot — have completed and all halo streams
// are fully drained.
func (p *program) Run(maxCycles int64) (int64, error) {
	p.Arm()
	return p.M.RunUntil(p.Done, maxCycles)
}

// tileAlloc lays out one tile's arena: a plain list of named
// allocations, the first failure kept and checked once at the end.
type tileAlloc struct {
	a   *tensor.Arena
	err error
}

func (t *tileAlloc) alloc(name string, n int) int {
	if t.err != nil {
		return 0
	}
	var off int
	off, t.err = t.a.Alloc(name, n)
	return off
}
