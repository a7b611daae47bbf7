package core

import (
	"fmt"
	"strings"

	"repro/internal/kernels"
	"repro/internal/mfix"
	"repro/internal/perfmodel"
	"repro/internal/wse"
)

// Cavity2DRun is one run of the Table II lid-driven cavity with the
// pressure-correction solve on the wafer: the SIMPLE outer loop on the
// host, momentum solves on the host backend, and every pressure
// BiCGStab executing on the simulated fabric through the §IV-2 2D
// block-halo mapping.
type Cavity2DRun struct {
	N int // cells per side
	// Engine is the machine's engine and shard count (engineLabel),
	// e.g. "fastforward/4" or "seq/1".
	Engine string
	Re     float64

	Residuals         []mfix.Residuals
	PressureResiduals [][]float64 // per solve, per BiCGStab iteration
	Fingerprint       uint64      // machine architectural state at the end

	Solves      int                 // pressure solves (= SIMPLE iterations)
	SolverIters int                 // total wafer BiCGStab iterations
	Cycles      kernels.PhaseCycles // accumulated simulated cycles
}

// CyclesPerPoint returns simulated solver cycles per meshpoint per
// BiCGStab iteration — the wafer-side cost the §VI-A projection charges
// at the headline rate.
func (r Cavity2DRun) CyclesPerPoint() float64 {
	if r.SolverIters == 0 {
		return 0
	}
	return float64(r.Cycles.Total()) / float64(r.SolverIters) / float64(r.N*r.N)
}

// engineLabel names what stepped mach: its resolved engine
// (wse.Machine.EngineName) and the fabric's shard count, "engine/shards".
func engineLabel(mach *wse.Machine) string {
	return fmt.Sprintf("%s/%d", mach.EngineName(), len(mach.Fab.ShardRanges()))
}

// Cavity2DWSE runs the lid-driven cavity with the wafer pressure
// backend on the simulated fabric. The machine runs wse.EngineAuto,
// the fast-forward engine, which jumps the solver's vector phases and
// the AllReduce's row phase and broadcast in closed form (exactly) and
// cycle-simulates the rest; workers > 1 is its shard count, and with
// workers <= 1 the -wse.engine test flag can re-point it to the
// sequential engine, which cycle-simulates every phase. The result —
// residuals, pressure histories, machine fingerprint — is
// bit-identical across engines and shard counts (the equivalence tests
// compare them).
// The machine is closed before returning, so no helper goroutines
// outlive the call.
func Cavity2DWSE(n, b, workers, simpleIters int, re float64) (Cavity2DRun, error) {
	if b <= 0 || n%b != 0 {
		return Cavity2DRun{}, fmt.Errorf("core: mesh %d does not tile into %d×%d blocks", n, b, b)
	}
	cfg := wse.CS1(n/b, n/b)
	cfg.Workers = workers
	mach := wse.New(cfg)
	defer mach.Close()

	be := kernels.NewWafer2DBackend(mach, b)
	c := mfix.NewCavity2D(n, re)
	c.Pressure = be
	res, err := c.Run(simpleIters)
	if err != nil {
		return Cavity2DRun{}, err
	}
	return Cavity2DRun{
		N:                 n,
		Engine:            engineLabel(mach),
		Re:                re,
		Residuals:         res,
		PressureResiduals: c.PressureResiduals,
		Fingerprint:       mach.Fingerprint(),
		Solves:            be.Solves,
		SolverIters:       be.Iterations,
		Cycles:            be.Cycles,
	}, nil
}

// Cavity2DReport runs a small cavity-on-wafer configuration end to end
// and formats the §VI-A comparison: SIMPLE convergence with the
// cycle-simulated fp16 pressure solve against the float64 host
// baseline, plus measured cycles per meshpoint against the calibrated
// model's headline rate.
func Cavity2DReport() string {
	const n, b, iters = 16, 2, 8
	var sb strings.Builder
	fmt.Fprintf(&sb, "2D cavity on the wafer (Table II workload, pressure solve cycle-simulated)\n")

	run, err := Cavity2DWSE(n, b, 1, iters, 100)
	if err != nil {
		return err.Error()
	}
	host := mfix.NewCavity2D(n, 100)
	hres, err := host.Run(iters)
	if err != nil {
		return err.Error()
	}
	fmt.Fprintf(&sb, "  %d² cells, %d×%d blocks on a %d×%d fabric, Re=%g, %d SIMPLE iterations\n",
		n, b, b, n/b, n/b, run.Re, iters)
	for i, r := range run.Residuals {
		fmt.Fprintf(&sb, "  iter %2d: mass %.3e (host fp64: %.3e)  momentum-change %.3e\n",
			i+1, r.Mass, hres[i].Mass, r.Momentum)
	}
	fmt.Fprintf(&sb, "  pressure solver: %d BiCGStab iterations over %d solves, %d cycles total\n",
		run.SolverIters, run.Solves, run.Cycles.Total())
	fmt.Fprintf(&sb, "  breakdown: spmv %d, dot %d, allreduce %d, axpy %d\n",
		run.Cycles.SpMV, run.Cycles.Dot, run.Cycles.AllReduce, run.Cycles.Axpy)
	headline, _, _ := perfmodel.Headline()
	w := perfmodel.CS1()
	modelPerPoint := perfmodel.PaperModel().IterationCycles(w, headline.Z).Total() / float64(headline.Z)
	fmt.Fprintf(&sb, "  cycles/meshpoint/iteration: %.3f measured (small %d×%d blocks; AllReduce dominates)\n",
		run.CyclesPerPoint(), b, b)
	fmt.Fprintf(&sb, "  vs %.1f modelled at the 3D headline (Z=1536 amortizes the reduction)\n", modelPerPoint)
	return sb.String()
}
