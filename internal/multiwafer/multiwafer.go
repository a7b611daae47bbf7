// Package multiwafer composes several cycle-simulated wafers
// (wse.Machine instances) into a cluster that solves one 3D stencil
// system — the scale-out direction the paper closes with: if one CS-1
// replaces a cluster of CPU nodes, a cluster of CS-1s coupled through
// their 1.2 Tb/s edge I/O is the next rung.
//
// A W×H wafer grid block-partitions the mesh's X×Y extent (the Z
// columns stay tile-local, as in the paper's 3D mapping); each wafer
// simulates its sub-extent with the halo-resident SpMV (the 7-point
// star spec compiled by stencilc: a stencilc.Program3D at the wafer's
// tile offset). The package holds no solve loop: a Cluster is
// the kernels.Substrate of one kernels.BiCGStabEngine — the same
// Algorithm 1 recurrence, exact combine and cycle account every
// single-wafer solver runs — and supplies what is particular to a grid.
// Three kinds of coupling cross wafer edges, all through a host-side
// interconnect model that charges latency plus bytes over the per-edge
// bandwidth and converts to cycles at the wafer clock:
//
//   - halo exchange (exchangeHalos, the SpMV hook's edge-I/O step):
//     before each SpMV, boundary iterate columns are copied bit-verbatim
//     into the neighbouring wafer's halo storage;
//   - dot reduction, level two: the engine reduces each wafer's per-tile
//     mixed-precision dot partials with the on-wafer Figure 6 AllReduce
//     (cycle-simulated, cross-checked per wafer) and combines the
//     partials of all wafers into one exactly rounded float64
//     (cluster.ExactSum32 — the wide accumulator solver.Parallel's
//     goroutine-ranks merge too) in the canonical global (y, x) order
//     this package supplies;
//   - the scalar result is re-broadcast, charged with the combine as
//     two scalar hops per grid axis (combineCycles, the substrate's
//     per-dot charge).
//
// # Determinism contract
//
// Residual histories and solutions are bit-identical across wafer
// counts and simulation engines. Per-tile arithmetic is a fixed
// instruction sequence (the stencilc.Program3D contract), halos move
// bit-verbatim whether by fabric stream or host edge copy, dots are
// exactly rounded sums of per-tile partials (order-invariant), and all
// host-side diagnostics accumulate in canonical global mesh order. The
// package tests pin 1/2/4-wafer runs and both engines to the same
// histories. A 1×1 cluster is the one-part substrate the single-wafer
// star solver at stencilc.Spec7Point also is, so the two return the
// same account field for field (TestOneWaferClusterIsTheStarSolver) —
// and the same bits as the host chunked-mixed context, sequential or
// rank-parallel (solver.Parallel); internal/core's
// TestAllBackendsBitIdentical pins all four.
package multiwafer

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/kernels"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// Topology is the wafer grid: W×H wafers side by side over the mesh's
// X×Y extent.
type Topology struct{ W, H int }

// Wafers returns the wafer count.
func (t Topology) Wafers() int { return t.W * t.H }

// String formats the grid as "WxH".
func (t Topology) String() string { return fmt.Sprintf("%dx%d", t.W, t.H) }

// ParseTopology parses a "WxH" grid spec (as in cmd/wsesim -wafers).
// The whole string must be the spec — trailing input is rejected, so a
// typo like "2x2x4" fails instead of silently running a 2×2 grid.
func ParseTopology(s string) (Topology, error) {
	bad := func() (Topology, error) {
		return Topology{}, fmt.Errorf("multiwafer: bad wafer grid %q (want WxH, e.g. 2x1)", s)
	}
	ws, hs, found := strings.Cut(s, "x")
	if !found {
		return bad()
	}
	w, err := strconv.Atoi(ws)
	if err != nil || w < 1 {
		return bad()
	}
	h, err := strconv.Atoi(hs)
	if err != nil || h < 1 {
		return bad()
	}
	return Topology{W: w, H: h}, nil
}

// Interconnect models the host-side coupling between adjacent wafers:
// a fixed per-transfer latency plus a bandwidth term per wafer edge.
// The CS-1 exposes 1.2 Tb/s of edge I/O; the default charges that full
// rate to each edge face, the most favourable reading (a face-to-face
// cable consuming the whole I/O complex), so the model's scaling limits
// are lower bounds on communication cost.
type Interconnect struct {
	// LatencySec is the fixed cost of one transfer (host turnaround plus
	// link latency).
	LatencySec float64
	// EdgeBandwidthBps is the usable bandwidth of one wafer edge face in
	// bits per second.
	EdgeBandwidthBps float64
}

// DefaultInterconnect returns the calibration used by the reports: 1 µs
// latency, the CS-1's 1.2 Tb/s edge I/O per face.
func DefaultInterconnect() Interconnect {
	return Interconnect{LatencySec: 1e-6, EdgeBandwidthBps: 1.2e12}
}

// TransferSeconds returns the modelled time to move bytes across one
// wafer edge face.
func (ic Interconnect) TransferSeconds(bytes int) float64 {
	return ic.LatencySec + 8*float64(bytes)/ic.EdgeBandwidthBps
}

// Config assembles a cluster.
type Config struct {
	Grid Topology
	// Interconnect defaults to DefaultInterconnect when zero.
	Interconnect Interconnect
	// Workers selects each machine's simulation engine (wse.Config.Workers).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Grid.W == 0 {
		c.Grid.W = 1
	}
	if c.Grid.H == 0 {
		c.Grid.H = 1
	}
	if c.Interconnect == (Interconnect{}) {
		c.Interconnect = DefaultInterconnect()
	}
	return c
}

// Colors: the four directional halo-exchange colors, then the six
// AllReduce colors, on every wafer's fabric.
const arBase = fabric.Color(stencilc.NumExchangeColors)

// wafer is one machine plus its halo-resident SpMV program.
type wafer struct {
	wx, wy   int // grid position
	x0, y0   int // global tile coordinate of fabric (0,0)
	w, h     int // fabric extent
	mach     *wse.Machine
	spmv     *stencilc.Program3D
	neighbor [stencilc.NumHaloDirs]*wafer // adjacent wafers, nil at the grid edge
}

// Cluster is a grid of cycle-simulated wafers solving one system: the
// substrate of one kernels.BiCGStabEngine.
type Cluster struct {
	Cfg  Config
	Mesh stencil.Mesh

	wafers []*wafer
	eng    *kernels.BiCGStabEngine
}

// New builds a cluster for the normalized operator op. The mesh's X and
// Y extents are cut as evenly as possible across the grid
// (cluster.SplitExtent); Z must be even and the per-tile footprint —
// twelve SpMV columns plus seven solver vectors, 19·Z words — must fit
// the 48 KB tile memory.
func New(cfg Config, op *stencil.Op7Half) (*Cluster, error) {
	cfg = cfg.withDefaults()
	m := op.M
	if cfg.Grid.W > m.NX || cfg.Grid.H > m.NY {
		return nil, fmt.Errorf("multiwafer: grid %v needs at least %d×%d mesh columns, have %d×%d",
			cfg.Grid, cfg.Grid.W, cfg.Grid.H, m.NX, m.NY)
	}
	xs := cluster.SplitExtent(m.NX, cfg.Grid.W)
	ys := cluster.SplitExtent(m.NY, cfg.Grid.H)

	c := &Cluster{Cfg: cfg, Mesh: m}
	star := stencil.HalfFromOp7(op)
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()

	y0 := 0
	for wy := 0; wy < cfg.Grid.H; wy++ {
		x0 := 0
		for wx := 0; wx < cfg.Grid.W; wx++ {
			wf := &wafer{wx: wx, wy: wy, x0: x0, y0: y0, w: xs[wx], h: ys[wy]}
			mcfg := wse.CS1(wf.w, wf.h)
			mcfg.Workers = cfg.Workers
			wf.mach = wse.New(mcfg)
			var err error
			wf.spmv, err = stencilc.Compile3D(wf.mach, stencilc.Spec7Point(), star, x0, y0, 0)
			if err != nil {
				return nil, fmt.Errorf("multiwafer: wafer (%d,%d): %v", wx, wy, err)
			}
			c.wafers = append(c.wafers, wf)
			x0 += xs[wx]
		}
		y0 += ys[wy]
	}

	// Wire wafer adjacency (HaloXP = the wafer to the east, …).
	at := func(wx, wy int) *wafer {
		if wx < 0 || wx >= cfg.Grid.W || wy < 0 || wy >= cfg.Grid.H {
			return nil
		}
		return c.wafers[wy*cfg.Grid.W+wx]
	}
	for _, wf := range c.wafers {
		wf.neighbor[stencilc.HaloXP] = at(wf.wx+1, wf.wy)
		wf.neighbor[stencilc.HaloXM] = at(wf.wx-1, wf.wy)
		wf.neighbor[stencilc.HaloYP] = at(wf.wx, wf.wy+1)
		wf.neighbor[stencilc.HaloYM] = at(wf.wx, wf.wy-1)
	}

	var err error
	if c.eng, err = kernels.NewBiCGStabEngine(c.substrate()); err != nil {
		return nil, fmt.Errorf("multiwafer: %v", err)
	}
	ok = true
	return c, nil
}

// substrate describes the grid to the shared solve loop: the wafers'
// machines as parts, the halo-resident SpMV with the host's inter-wafer
// halo exchange charged as edge I/O, the Z-column layout of the global
// mesh, the canonical global (y, x) row-major order of every host-side
// reduction — so no diagnostic can depend on the decomposition — and
// the per-dot combine charge.
func (c *Cluster) substrate() kernels.Substrate {
	m := c.Mesh
	machines := make([]*wse.Machine, len(c.wafers))
	progs := make([]kernels.TileProgram, len(c.wafers))
	for i, wf := range c.wafers {
		machines[i], progs[i] = wf.mach, wf.spmv
	}
	order := make([][2]int32, 0, m.NX*m.NY)
	for gy := 0; gy < m.NY; gy++ {
		for gx := 0; gx < m.NX; gx++ {
			wi, ti := c.locate(gx, gy)
			order = append(order, [2]int32{int32(wi), int32(ti)})
		}
	}
	return kernels.Substrate{
		Machines: machines, PerTile: m.NZ, ARBase: arBase,
		SpMV: kernels.ProgramSpMV(machines, progs, m.NZ, c.exchangeHalos),
		Index: func(part, tile, elem int) int {
			gx, gy := c.wafers[part].spmv.GlobalCoord(tile)
			return m.Index(gx, gy, elem)
		},
		Order:         order,
		CombineCycles: c.combineCycles(),
	}
}

// LoadCoeff swaps the cluster's stencil operator without rebuilding the
// wafer machines: each wafer's halo SpMV rewrites its coefficient
// sub-extent in place, everything else (routing, tasks, solver vectors,
// adjacency, reduction order) is reused. Solve re-initializes the
// vectors on every call, so a warm cluster serves an arbitrary sequence
// of solves on the same mesh and grid — the service layer's
// machine-cache contract. The operator's mesh must match the cluster's.
func (c *Cluster) LoadCoeff(op *stencil.Op7Half) error {
	if op.M != c.Mesh {
		return fmt.Errorf("multiwafer: operator mesh %v does not match cluster mesh %v", op.M, c.Mesh)
	}
	star := stencil.HalfFromOp7(op)
	for _, wf := range c.wafers {
		if err := wf.spmv.LoadCoeff(star); err != nil {
			return err
		}
	}
	return nil
}

// locate returns the wafer index and local tile index owning global
// mesh column (gx, gy).
func (c *Cluster) locate(gx, gy int) (wi, ti int) {
	for i, wf := range c.wafers {
		if gx >= wf.x0 && gx < wf.x0+wf.w && gy >= wf.y0 && gy < wf.y0+wf.h {
			return i, (gy-wf.y0)*wf.w + (gx - wf.x0)
		}
	}
	panic(fmt.Sprintf("multiwafer: no wafer owns column (%d,%d)", gx, gy))
}

// Wafers returns the wafer count.
func (c *Cluster) Wafers() int { return len(c.wafers) }

// Close releases every machine's simulation worker pool. Idempotent.
func (c *Cluster) Close() {
	for _, wf := range c.wafers {
		if wf.mach != nil {
			wf.mach.Close()
		}
	}
}
