package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/multiwafer"
	"repro/internal/perfmodel"
	"repro/internal/service"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/tensor"
	"repro/internal/wse"
)

// The traced run of a workload has four parts, all timed from this
// package around public calls:
//
//  1. the workload's façade call untraced (the end-to-end figure the
//     trace is compared with), then replicated call by call with spans;
//  2. the engine row and the host baseline: the same call under every
//     core-stepping engine and on the plain host solver;
//  3. the layer ladder on the workload's mesh: fabric and machine
//     stepping, the compiled stencil program, the hand-written kernels,
//     the multi-wafer cluster, each with a fixed operator so rungs
//     compare across workloads;
//  4. the daemon with the workload's job mix: cold and warm jobs,
//     in-process against loopback HTTP, spool on against off, and the
//     recovery scan of a 1000-job spool.
//
// Service workloads decompose the direct solve of their first job shape
// in parts 1–3; solve workloads run part 4 with svc_write's job mix, so
// every rung is measured on every workload.

// rungReps is how often a one-shot rung (a build, a snapshot, one
// kernel application) is repeated; the fastest is reported (floor).
const rungReps = 3

// ladderIters is the iteration count of the multi-wafer rung.
const ladderIters = 2

// timeIt returns f's fastest duration over rungReps runs, in seconds.
func timeIt(f func()) float64 {
	var xs []float64
	for i := 0; i < rungReps; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, time.Since(t0).Seconds())
	}
	return floor(xs)
}

// timeOnFresh is timeIt for a step that consumes a newly built machine:
// only f is timed, not wse.New.
func timeOnFresh(m stencil.Mesh, f func(*wse.Machine)) float64 {
	var xs []float64
	for i := 0; i < rungReps; i++ {
		mach := wse.New(wse.CS1(m.NX, m.NY))
		t0 := time.Now()
		f(mach)
		xs = append(xs, time.Since(t0).Seconds())
		mach.Close()
	}
	return floor(xs)
}

// stepLoop calls step for about slice seconds (at least 16 times) and
// returns nanoseconds per call and the call count.
func stepLoop(slice float64, step func()) (nsPerStep float64, n int) {
	t0 := time.Now()
	for n < 16 || time.Since(t0).Seconds() < slice {
		for k := 0; k < 16; k++ {
			step()
		}
		n += 16
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), n
}

// spinInstr never completes: launched on a thread it keeps its core on
// the runnable worklist, so a machine full of them pays the full
// per-active-core scheduling cost every cycle.
type spinInstr struct{}

func (spinInstr) Step(_ *wse.Core, lanes int) int { return min(lanes, 1) }
func (spinInstr) Done() bool                      { return false }

// armVectorTask gives every tile a self-re-arming axpy+copy task over
// 32-element vectors: the homogeneous load the batched engine targets.
func armVectorTask(mach *wse.Machine) {
	const n = 32
	for _, tl := range mach.Tiles {
		x := tl.Arena.MustAlloc("x", n)
		y := tl.Arena.MustAlloc("y", n)
		for k := 0; k < n; k++ {
			tl.Arena.Set(x+k, fp16.FromFloat64(float64(k%7)*0.125))
			tl.Arena.Set(y+k, fp16.FromFloat64(float64(k%5)*0.25))
		}
		ax := &wse.MemOp{Kind: wse.OpAxpy, Arena: tl.Arena, Dst: tensor.Vec1D(y, n), A: tensor.Vec1D(x, n)}
		cp := &wse.MemOp{Kind: wse.OpCopy, Arena: tl.Arena, Dst: tensor.Vec1D(x, n), A: tensor.Vec1D(y, n)}
		task := &wse.Task{Name: "axpy", Instrs: []wse.Instr{ax, cp}}
		task.OnComplete = func(c *wse.Core) {
			ax.Reset()
			cp.Reset()
			c.Activate(task)
		}
		tl.Core.Activate(tl.Core.AddTask(task))
	}
}

// ladderFabric: the router simulator alone, saturated and idle.
func ladderFabric(out *runResult, m stencil.Mesh, slice float64) {
	out.set("fabric.new_s", timeIt(func() { fabric.New(fabric.Config{W: m.NX, H: m.NY}).Close() }))

	f := fabric.New(fabric.Config{W: m.NX, H: m.NY})
	defer f.Close()
	fabric.BuildFlows(f)
	for warm := 0; warm < 2*max(m.NX, m.NY); warm++ {
		fabric.DriveFlows(f)
	}
	moves0 := f.Moves()
	ns, n := stepLoop(slice, func() { fabric.DriveFlows(f) })
	out.set("fabric.step_sat_ns", ns)
	out.set("fabric.words_per_cycle", float64(f.Moves()-moves0)/float64(n))

	idle := fabric.New(fabric.Config{W: m.NX, H: m.NY})
	defer idle.Close()
	ns, _ = stepLoop(slice, idle.Step)
	out.set("fabric.step_idle_ns", ns)
}

// ladderMachine: wse.New and one machine cycle under four loads.
func ladderMachine(out *runResult, m stencil.Mesh, slice float64) {
	out.set("wse.new_s", timeIt(func() { wse.New(wse.CS1(m.NX, m.NY)).Close() }))

	step := func(name string, engine wse.Engine, arm func(*wse.Machine)) {
		cfg := wse.CS1(m.NX, m.NY)
		cfg.Engine = engine
		mach := wse.New(cfg)
		defer mach.Close()
		arm(mach)
		ns, _ := stepLoop(slice, mach.Step)
		out.set(name, ns)
	}
	step("wse.step_spin_ns", wse.EngineSequential, func(mach *wse.Machine) {
		for _, tl := range mach.Tiles {
			tl.Core.LaunchThread(0, "spin", spinInstr{}, nil)
		}
	})
	step("wse.step_vec_ns.seq", wse.EngineSequential, armVectorTask)
	step("wse.step_vec_ns.batched", wse.EngineBatched, armVectorTask)
	step("wse.step_idle_ns", wse.EngineSequential, func(*wse.Machine) {})
}

// ladderKernels: the Listing 1 solver's build and warm-reuse steps
// (what the daemon's cache pays per job), a machine snapshot, and one
// application each of the SpMV and the AllReduce.
func ladderKernels(out *runResult, m stencil.Mesh, seed int64) error {
	norm, _ := momentumOp(m).Normalize()
	half := stencil.NewOp7Half(norm)

	var err error
	out.set("kernels.build_s", timeOnFresh(m, func(mach *wse.Machine) {
		if _, e := kernels.NewBiCGStabWSE(mach, half); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}

	mach := wse.New(wse.CS1(m.NX, m.NY))
	defer mach.Close()
	sv, err := kernels.NewBiCGStabWSE(mach, half)
	if err != nil {
		return err
	}
	var pristine *wse.Snapshot
	out.set("kernels.pristine_s", timeIt(func() { pristine, err = sv.Pristine() }))
	if err != nil {
		return err
	}
	out.set("kernels.reset_s", timeIt(func() { err = sv.Reset(pristine) }))
	if err != nil {
		return err
	}
	out.set("kernels.loadcoeff_s", timeIt(func() { err = sv.LoadCoeff(half) }))
	if err != nil {
		return err
	}
	var snap *wse.Snapshot
	out.set("wse.snapshot_s", timeIt(func() { snap, err = mach.Snapshot() }))
	if err != nil {
		return err
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		return err
	}
	out.set("wse.snapshot_mb", float64(len(blob))/1e6)
	out.set("wse.restore_s", timeIt(func() { err = mach.Restore(snap) }))
	if err != nil {
		return err
	}

	km := wse.New(wse.CS1(m.NX, m.NY))
	defer km.Close()
	spmv, err := kernels.NewSpMV3D(km, half)
	if err != nil {
		return err
	}
	v := fp16.FromFloat64Slice(exactSolution(m.N(), seed))
	var cycles int64
	out.set("kernels.spmv_s", timeIt(func() {
		spmv.LoadVector(v)
		cycles, err = spmv.Run(1 << 24)
	}))
	if err != nil {
		return err
	}
	out.set("kernels.spmv_cycles", float64(cycles))

	am := wse.New(wse.CS1(m.NX, m.NY))
	defer am.Close()
	ar, err := kernels.NewAllReduce(am, 0)
	if err != nil {
		return err
	}
	vals := make([]float32, m.NX*m.NY)
	for i := range vals {
		vals[i] = float32(i % 11)
	}
	var res kernels.AllReduceResult
	out.set("kernels.allreduce_s", timeIt(func() { res, err = ar.Run(vals, 1<<24) }))
	if err != nil {
		return err
	}
	out.set("kernels.allreduce_cycles", float64(res.Cycles))

	// The closed-form model must give the simulated count exactly.
	pw := perfmodel.CS1()
	pw.W, pw.H = m.NX, m.NY
	model := pw.AllReduceCycles()
	out.set("perfmodel.allreduce_cycles_model", model)
	if model != float64(res.Cycles) {
		out.fail(fmt.Sprintf("perfmodel AllReduce %v cycles, simulator %d on %dx%d", model, res.Cycles, m.NX, m.NY))
	}
	return nil
}

// ladderStencilc: compile the 7-point heat star for the mesh and apply
// it once; the exact perfmodel entry must agree with the simulator.
func ladderStencilc(out *runResult, m stencil.Mesh, seed int64) error {
	norm, _ := stencil.Heat3D(m, heatLambda, stencil.Dirichlet).Normalize()
	half := stencil.NewOpStarHalf(norm)
	spec := starSpec(norm)

	var err error
	out.set("stencilc.compile_s", timeOnFresh(m, func(mach *wse.Machine) {
		if _, e := stencilc.Compile3D(mach, spec, half, 0, 0, 0); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}

	mach := wse.New(wse.CS1(m.NX, m.NY))
	defer mach.Close()
	prog, err := stencilc.Compile3D(mach, spec, half, 0, 0, 0)
	if err != nil {
		return err
	}
	src := fp16.FromFloat64Slice(exactSolution(m.N(), seed))
	var cycles int64
	out.set("stencilc.apply_s", timeIt(func() {
		for t := 0; t < prog.Tiles(); t++ {
			gx, gy := prog.GlobalCoord(t)
			col := prog.Iterate(t)
			for z := range col {
				col[z] = src[m.Index(gx, gy, z)]
			}
		}
		cycles, err = prog.Run(1 << 24)
	}))
	if err != nil {
		return err
	}
	out.set("stencilc.apply_cycles", float64(cycles))

	var model int64
	sa := perfmodel.StencilApply3D{W: m.NX, H: m.NY, Z: m.NZ, Widths: norm.W}
	out.set("perfmodel.stencil_apply_eval_s", timeIt(func() { model = sa.Cycles() }))
	out.set("perfmodel.stencil_apply_cycles_model", float64(model))
	if model != cycles {
		out.fail(fmt.Sprintf("perfmodel stencil apply %d cycles, simulator %d on %v", model, cycles, m))
	}
	return nil
}

// ladderPaper: the reference error every simulated figure stands
// beside. The AllReduce figure is a prediction (1.36 µs against the
// paper's < 1.5 µs); the iteration figure compares the uncalibrated
// η = 1 model with the measured 28.1 µs — the η-fitted 28.10 µs is a
// calibration, not a validation, and is not reported as an error.
func ladderPaper(out *runResult) {
	out.set("perfmodel.paper_allreduce_us", perfmodel.CS1().AllReduceSeconds()*1e6)
	_, paperIter, _ := perfmodel.Headline()
	simIter, _, _ := perfmodel.HeadlinePrediction(perfmodel.SimModel())
	out.set("perfmodel.paper_iter_err_frac", (simIter-paperIter)/paperIter)
}

// ladderMultiWafer: the mesh on a 2×1 wafer grid (the workload's own
// grid on multiwafer_2x1), build, coefficient reload and a short solve.
func ladderMultiWafer(out *runResult, w workload, seed int64) error {
	grid := w.Grid
	if grid.W == 0 {
		grid = multiwafer.Topology{W: 2, H: 1}
	}
	p, _ := core.NewProblem(momentumOp(w.Mesh), exactSolution(w.Mesh.N(), seed))
	norm, diag := p.Op.Normalize()
	half := stencil.NewOp7Half(norm)
	b16 := fp16.FromFloat64Slice(stencil.ScaleRHS(p.B, diag))

	var cl *multiwafer.Cluster
	var err error
	t0 := time.Now()
	cl, err = multiwafer.New(multiwafer.Config{Grid: grid}, half)
	out.set("multiwafer.new_s", time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	defer cl.Close()
	out.set("multiwafer.loadcoeff_s", timeIt(func() { err = cl.LoadCoeff(half) }))
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, st, err := cl.Solve(b16, kernels.WSEOptions{MaxIter: ladderIters})
	out.set("multiwafer.solve_s", time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	c := st.Cycles
	out.set("multiwafer.cycles.spmv", float64(c.SpMV))
	out.set("multiwafer.cycles.edge_io", float64(c.EdgeIO))
	out.set("multiwafer.cycles.dot", float64(c.Dot))
	out.set("multiwafer.cycles.allreduce", float64(c.AllReduce))
	out.set("multiwafer.cycles.combine", float64(c.Combine))
	out.set("multiwafer.cycles.axpy", float64(c.Axpy))
	out.set("multiwafer.comm_cycle_share", float64(c.Communication())/float64(c.Total()))
	return nil
}

// handlerTransport serves requests straight from an http.Handler: the
// daemon's API with no socket in between.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rr := httptest.NewRecorder()
	t.h.ServeHTTP(rr, req)
	return rr.Result(), nil
}

// serialJobs runs n jobs of spec 0 one after another and returns their
// latencies.
func (e *svcEnv) serialJobs(out *runResult, c *http.Client, url string, n int) []float64 {
	var lat []float64
	for i := 0; i < n; i++ {
		jt, reason := e.job(nil, "", c, url, 0)
		out.op(reason)
		if reason == "" {
			lat = append(lat, jt.latency)
		}
	}
	return lat
}

// medianOr is the median of xs, or 0 with a failure noted when a rung
// produced no sample.
func medianOr(out *runResult, what string, xs []float64) float64 {
	if len(xs) == 0 {
		out.fail(what + ": no sample")
		return 0
	}
	return median(xs)
}

// ladderService: the daemon with the workload's job mix.
func ladderService(out *runResult, rec *recorder, w workload, seed int64, seconds float64) error {
	specs := w.jobSpecs(seed)
	var refs []core.Result
	for _, spec := range specs {
		ref, err := directSolve(spec)
		out.op(checkSolve(ref, err, spec.MaxIter, 0))
		refs = append(refs, ref)
	}
	start := func(spool bool) (*svcEnv, float64, error) {
		t0 := time.Now()
		e, err := startService(spool)
		if err != nil {
			return nil, 0, err
		}
		e.specs, e.refs = specs, refs
		return e, time.Since(t0).Seconds(), nil
	}

	// Spool off: cold job, warm jobs over loopback and in process.
	plain, newS, err := start(false)
	if err != nil {
		return err
	}
	out.set("service.new_s", newS)
	cold, reason := plain.job(nil, "", plain.ts.Client(), plain.ts.URL, 0)
	out.op(reason)
	out.set("service.cold_job_s", cold.latency)
	plain.prewarm(out)
	warm := medianOr(out, "warm jobs", plain.serialJobs(out, plain.ts.Client(), plain.ts.URL, rungReps))
	out.set("service.warm_job_s_p50", warm)
	inproc := &http.Client{Transport: handlerTransport{plain.srv.Handler()}}
	out.set("service.inproc_job_s_p50", medianOr(out, "in-process jobs", plain.serialJobs(out, inproc, "http://inproc", rungReps)))

	// Spool on: the same warm jobs with every transition written out.
	spooled, _, err := start(true)
	if err != nil {
		plain.stop()
		return err
	}
	spooled.prewarm(out)
	out.set("service.spool_job_delta_s", medianOr(out, "spooled jobs", spooled.serialJobs(out, spooled.ts.Client(), spooled.ts.URL, rungReps))-warm)

	// The workload's mix, traced, on the daemon configured as the
	// workload has it — but never more than half writes, so the read
	// rungs have samples on the all-write mix too.
	env, other := plain, spooled
	if w.Spool {
		env, other = spooled, plain
	}
	win := env.loop(rec, w, min(w.WriteFrac, 0.5), seed, seconds, 2*clients(), 20, out)
	other.stop()
	out.set("service.shutdown_s", env.stop())

	out.set("service.submit_s_p50", medianOr(out, "submits", win.submit))
	job := sortedCopy(win.job)
	jobP50 := medianOr(out, "window jobs", job)
	out.set("service.job_s_p50", jobP50)
	out.set("service.job_s_p90", quantile(job, 0.9))
	out.set("service.jobs_per_s", float64(len(job))/win.elapsed)
	reads := sortedCopy(win.read)
	out.set("service.read_s_p50", medianOr(out, "reads", reads))
	out.set("service.read_s_p99", quantile(reads, 0.99))
	out.set("service.solution_s_p50", medianOr(out, "solution reads", win.solution))
	out.set("service.server_solve_s_mean", win.serverSolveMean)
	out.set("service.overhead_s_p50", jobP50-win.serverSolveMean)
	out.set("service.cache_hits", float64(win.cacheHits))
	out.set("service.cache_misses", float64(win.cacheMisses))
	out.set("service.cache_hit_ratio", float64(win.cacheHits)/math.Max(1, float64(win.cacheHits+win.cacheMisses)))

	return ladderRecovery(out)
}

// ladderRecovery times service.New over a spool of 1000 finished jobs:
// one tiny local job run for real, its record copied under new ids.
func ladderRecovery(out *runResult) error {
	e, err := startService(true)
	if err != nil {
		return err
	}
	e.specs = []service.JobSpec{{Problem: "momentum", NX: 4, NY: 4, NZ: 8, Seed: 1, Backend: "local", MaxIter: 4}}
	ref, err := directSolve(e.specs[0])
	e.refs = []core.Result{ref}
	var record []byte
	if err == nil {
		jt, reason := e.job(nil, "", e.ts.Client(), e.ts.URL, 0)
		out.op(reason)
		record, err = os.ReadFile(filepath.Join(e.spoolDir, jt.id+".json"))
	}
	e.stop()
	if err != nil {
		return err
	}
	out.set("service.spool_bytes_per_job", float64(len(record)))

	var view service.JobView
	if err := json.Unmarshal(record, &view); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "spool-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i := 1; i <= 1000; i++ {
		view.ID = fmt.Sprintf("j%06d", i)
		data, err := json.Marshal(view)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, view.ID+".json"), data, 0o644); err != nil {
			return err
		}
	}
	t0 := time.Now()
	srv, err := service.New(service.Config{SpoolDir: dir, Workers: 1})
	out.set("service.recover_scan_s_1k", time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	return srv.Shutdown(context.Background())
}

// runTraced is the traced run of any workload; see the top of the file.
func runTraced(w workload, seed int64, seconds float64) *runResult {
	out := newRunResult(w, seed, true)
	rec := newRecorder()
	slice := seconds / 40

	// Part 1: the façade call, untraced then replicated. (On a service
	// workload w's call is the direct wafer solve of its first job shape.)
	in := w.buildInput(seed)
	var ref core.Result
	var untraced []float64
	for i := 0; i < rungReps+1; i++ {
		t0 := time.Now()
		res, err := w.call(in, w.options(""))
		d := time.Since(t0).Seconds()
		if i == 0 { // warm-up, and the reference the rest must match
			out.op(checkSolve(res, err, w.MaxIter, 0))
			ref = res
			continue
		}
		untraced = append(untraced, d)
		out.op(checkSolve(res, err, w.MaxIter, fingerprint(ref)))
	}
	refFP := fingerprint(ref)
	out.Fingerprint, out.TrueResidual = hex(refFP), ref.TrueResidual
	solveS := floor(untraced)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res, err := replicate(rec, w.Name+"/0", w, in)
	runtime.ReadMemStats(&ms1)
	out.opIn("replicated call sequence", checkSolve(res, err, w.MaxIter, refFP))
	replicateSpans := len(rec.spans)

	// Part 2: engine row and host baseline.
	for _, eng := range []string{"seq", "sharded", "batched", "fastforward"} {
		t0 := time.Now()
		res, err := w.call(in, w.options(eng))
		out.set("wse.engine_solve_s."+eng, time.Since(t0).Seconds())
		out.opIn("engine "+eng, checkSolve(res, err, w.MaxIter, refFP))
	}
	host := core.Options{Backend: core.Local, MaxIter: w.MaxIter}
	if !in.star() { // star solves run in fp64 on the host
		host.Local.Precision = core.Mixed
	}
	var hostErr error
	hostS := timeIt(func() { _, hostErr = w.call(in, host) })
	if hostErr != nil {
		out.op("host baseline: " + hostErr.Error())
	}
	out.set("solver.host_mixed_solve_s", hostS)
	out.set("solver.sim_slowdown", solveS/hostS)

	// Part 3: the ladder on the workload's mesh.
	ladderFabric(out, w.Mesh, slice)
	ladderMachine(out, w.Mesh, slice)
	ladderPaper(out)
	rung := func(name string, err error) {
		if err != nil {
			out.op(name + " rung: " + err.Error())
		}
	}
	rung("kernels", ladderKernels(out, w.Mesh, seed))
	rung("stencilc", ladderStencilc(out, w.Mesh, seed))
	rung("multiwafer", ladderMultiWafer(out, w, seed))
	// Part 4.
	rung("service", ladderService(out, rec, w, seed, seconds/4))

	// The replicate's spans become the core.* and kernels.* figures.
	spans := rec.finish()
	rep := spans[:replicateSpans]
	root := spanSeconds(rep, spanRoot)
	var selfSum int64
	for _, s := range rep {
		selfSum += s.Self
		if s.Self < 0 || s.End < s.Start {
			out.fail(fmt.Sprintf("span %s has negative time", s.Name))
		}
	}
	if math.Abs(float64(selfSum)/1e9-root) > 0.01*root {
		out.fail(fmt.Sprintf("span self times sum to %.6fs, root is %.6fs", float64(selfSum)/1e9, root))
	}
	solveSpan := sumRoles(rep, rolesSolve)
	var iters []float64
	for _, s := range rep {
		if s.Name == spanIter {
			iters = append(iters, float64(s.End-s.Start)/1e9)
		}
	}
	out.set("core.root_s", root)
	out.set("core.self_s", float64(rep[0].Self)/1e9)
	out.set("core.normalize_s", sumRoles(rep, rolesNormalize))
	out.set("core.build_s", sumRoles(rep, rolesBuild))
	out.set("core.fp16_convert_s", sumRoles(rep, rolesConvert))
	out.set("core.residual_s", sumRoles(rep, rolesResidual))
	out.set("core.alloc_mb_per_solve", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
	out.set("core.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	out.set("core.true_residual", res.TrueResidual)
	out.set("trace_overhead_frac", (root-solveS)/solveS)
	out.set("kernels.solve_s", solveSpan)
	if len(iters) > 0 {
		out.set("kernels.iter_s_first", iters[0])
		out.set("kernels.iter_s_p50", median(iters))
	}
	tel := res.Telemetry
	c := tel.Cycles
	out.set("kernels.cycles.spmv", float64(c.SpMV))
	out.set("kernels.cycles.dot", float64(c.Dot))
	out.set("kernels.cycles.allreduce", float64(c.AllReduce))
	out.set("kernels.cycles.axpy", float64(c.Axpy))
	out.set("kernels.cycles.setup", float64(tel.SetupCycles))
	out.set("kernels.allreduce_cycle_share", float64(c.AllReduce)/math.Max(1, float64(c.Total())))
	out.set("kernels.max_ar_drift", tel.MaxARDrift)
	tiles := float64(w.Mesh.NX * w.Mesh.NY)
	out.set("kernels.host_ns_per_tile_cycle", solveSpan*1e9/(math.Max(1, float64(c.Total()+tel.SetupCycles))*tiles))
	out.set("failed_frac", float64(out.Failed)/math.Max(1, float64(out.Attempted)))

	if err := os.MkdirAll(outDir, 0o755); err == nil {
		err = writeSpans(filepath.Join(outDir, "trace-"+w.Name+".json"), spans)
		if err != nil {
			out.fail("writing the trace: " + err.Error())
		}
	}
	return out
}
