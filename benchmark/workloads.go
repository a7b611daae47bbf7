package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/multiwafer"
	"repro/internal/service"
	"repro/internal/stencil"
	"repro/internal/stencilc"
)

// kind selects the public entry point a workload drives.
type kind int

const (
	kindSolve7     kind = iota // core.Solve, Wafer backend, 7-point momentum operator
	kindStar                   // core.SolveStar, Wafer backend, Heat3D star operator
	kindMultiWafer             // core.Solve, MultiWafer backend
	kindService                // the service HTTP API, closed loop
)

// workload is one named set of inputs. Solve workloads make one façade
// call per operation; service workloads submit JobSpecs over HTTP.
// Every workload also has a mesh for the layer ladder and a job mix for
// the service rungs of the traced run.
type workload struct {
	Name string
	Why  string
	Kind kind

	// Solve workloads: the mesh, iteration count and engine of the call.
	// Service workloads: the first job shape, used by the layer ladder.
	Mesh    stencil.Mesh
	MaxIter int
	Engine  string
	Grid    multiwafer.Topology

	// The job mix: a service workload's own, and on a solve workload —
	// which has no daemon on its blocking path — svc_write's, so the
	// service rungs of the traced run read the same on all of them.
	Shapes    []stencil.Mesh // write shapes, rotated in a seed-drawn order
	JobSeeds  int            // distinct exact solutions cycled over per shape
	JobIter   int            // max_iter of every job
	WriteFrac float64        // share of operations that submit a job
	Spool     bool           // SpoolDir set: every transition is written to disk
}

const (
	momentumNu  = 0.02
	heatLambda  = 0.1
	serviceIter = 6 // max_iter of svc_write jobs
	mixedIter   = 4 // max_iter of svc_mixed jobs
)

// workloads returns the seven workloads. toy shrinks every mesh to the
// 4×4×8 scale the package test runs in under a second; names, kinds and
// code paths are unchanged.
func workloads(toy bool) []workload {
	mixed := make([]stencil.Mesh, 0, 12)
	for _, nx := range []int{8, 10, 12} {
		for _, ny := range []int{8, 10} {
			for _, nz := range []int{16, 32} {
				mixed = append(mixed, stencil.Mesh{NX: nx, NY: ny, NZ: nz})
			}
		}
	}
	ws := []workload{
		{
			Name: "deep_z", Kind: kindSolve7,
			Why:  "large Z per tile, the paper's regime: host time is wse core stepping inside the Listing 1 SpMV, AllReduce under 10% of cycles",
			Mesh: stencil.Mesh{NX: 16, NY: 16, NZ: 256}, MaxIter: 2,
		},
		{
			Name: "wide_shallow", Kind: kindSolve7,
			Why:  "many tiles, Z = 8: host time is wse.New and fabric stepping under the AllReduce, over 80% of cycles; a SIMD-loop change must not move it",
			Mesh: stencil.Mesh{NX: 64, NY: 64, NZ: 8}, MaxIter: 2,
		},
		{
			Name: "star_deep_ff", Kind: kindStar,
			Why:  "compiled stencilc program under the fast-forward engine with phases long enough to skip: the path ROADMAP B wants as default",
			Mesh: stencil.Mesh{NX: 32, NY: 32, NZ: 128}, MaxIter: 2, Engine: "fastforward",
		},
		{
			Name: "star_wide_ff", Kind: kindStar,
			Why:  "even x odd fabric at Z = 4 like the paper's 602x595: over 90% of cycles are AllReduce, which fast-forward still cycle-simulates (ROADMAP D)",
			Mesh: stencil.Mesh{NX: 102, NY: 95, NZ: 4}, MaxIter: 2, Engine: "fastforward",
		},
		{
			Name: "multiwafer_2x1", Kind: kindMultiWafer,
			Why:  "the fourth copy of the solve recurrence (multiwafer.Cluster.Solve): edge I/O and combine are over 85% of cycles (ROADMAP B, G)",
			Mesh: stencil.Mesh{NX: 32, NY: 32, NZ: 64}, MaxIter: 2, Grid: multiwafer.Topology{W: 2, H: 1},
		},
		{
			Name: "svc_write", Kind: kindService,
			Why:  "daemon as a solve pipe: all writes on one shape, every job a warm-cache hit (Reset + LoadCoeff + solve), no spool",
			Mesh: stencil.Mesh{NX: 12, NY: 12, NZ: 32}, MaxIter: serviceIter,
			Shapes: []stencil.Mesh{{NX: 12, NY: 12, NZ: 32}}, JobSeeds: 4, JobIter: serviceIter, WriteFrac: 1,
		},
		{
			Name: "svc_mixed", Kind: kindService,
			Why:  "20% writes over 12 shapes, more than the 8 warm machines, 80% reads of finished jobs, spool on: misses, reads and disk beside solves",
			Mesh: mixed[0], MaxIter: mixedIter,
			Shapes: mixed, JobSeeds: 1, JobIter: mixedIter, WriteFrac: 0.2, Spool: true,
		},
	}
	if toy {
		for i := range ws {
			w := &ws[i]
			w.Mesh = stencil.Mesh{NX: 4, NY: 4, NZ: 8}
			w.Shapes = w.Shapes[:min(len(w.Shapes), 2)]
			for j := range w.Shapes {
				w.Shapes[j] = stencil.Mesh{NX: 4, NY: 4 + 2*j, NZ: 8}
			}
		}
	}
	write, _ := findWorkload(ws, "svc_write")
	for i := range ws {
		if w := &ws[i]; w.Kind != kindService {
			w.Shapes, w.JobSeeds, w.JobIter, w.WriteFrac = write.Shapes, write.JobSeeds, write.JobIter, write.WriteFrac
		}
	}
	return ws
}

func findWorkload(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// exactSolution is the seed-driven input every workload starts from:
// the right-hand side is b = A·x for this x, as cmd/wsesim and
// service.JobSpec.BuildProblem form it.
func exactSolution(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

func momentumOp(m stencil.Mesh) *stencil.Op7 {
	return stencil.MomentumLike(m, momentumNu, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
}

// solveInput is a generated façade-call input: exactly one of P7 and
// PStar is set.
type solveInput struct {
	P7    core.Problem
	PStar core.StarProblem
}

func (in solveInput) star() bool { return in.PStar.Op != nil }

// starSpec is the stencil-compiler spec core.SolveStar lowers a star
// operator under.
func starSpec(op *stencil.OpStar) stencilc.Spec {
	return stencilc.Spec{Dim: 3, Points: stencilc.Star, Widths: op.W, Boundary: op.Boundary}
}

func (w workload) buildInput(seed int64) solveInput {
	xe := exactSolution(w.Mesh.N(), seed)
	if w.Kind == kindStar {
		p, _ := core.NewStarProblem(stencil.Heat3D(w.Mesh, heatLambda, stencil.Dirichlet), xe)
		return solveInput{PStar: p}
	}
	p, _ := core.NewProblem(momentumOp(w.Mesh), xe)
	return solveInput{P7: p}
}

// options returns the façade options of the workload's call; engine
// overrides the workload's own engine when non-empty (the engine row of
// the ladder). Service workloads map to the direct solve of their first
// job shape, which is what the traced run decomposes.
func (w workload) options(engine string) core.Options {
	o := core.Options{MaxIter: w.MaxIter}
	if engine == "" {
		engine = w.Engine
	}
	if w.Kind == kindMultiWafer {
		o.Backend = core.MultiWafer
		o.MultiWafer.Grid = w.Grid
		return o
	}
	o.Backend = core.Wafer
	if engine == "sharded" {
		// Workers = nproc; at least 2, or the façade would pick the
		// sequential engine on a one-core host.
		o.Wafer.Workers = max(2, runtime.NumCPU())
	} else {
		o.Wafer.Engine = engine
	}
	return o
}

// call makes the workload's façade call.
func (w workload) call(in solveInput, o core.Options) (core.Result, error) {
	if in.star() {
		return core.SolveStar(in.PStar, o)
	}
	return core.Solve(in.P7, o)
}

// jobSpecs returns the distinct JobSpecs of the workload's service mix,
// shape-major: shapes in a seed-drawn order, JobSeeds exact solutions
// each.
func (w workload) jobSpecs(seed int64) []service.JobSpec {
	order := rand.New(rand.NewSource(seed)).Perm(len(w.Shapes))
	specs := make([]service.JobSpec, 0, len(w.Shapes)*w.JobSeeds)
	for _, si := range order {
		m := w.Shapes[si]
		for k := 0; k < w.JobSeeds; k++ {
			specs = append(specs, service.JobSpec{
				Problem: "momentum", NX: m.NX, NY: m.NY, NZ: m.NZ,
				Seed: seed*1000 + int64(k) + 1, Backend: "wafer", MaxIter: w.JobIter,
			})
		}
	}
	return specs
}
