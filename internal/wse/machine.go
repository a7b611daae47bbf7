// Package wse models the CS-1 wafer-scale engine at the level the paper
// programs it: a fabric of tiles, each holding one core with 48 KB of
// private SRAM, a router, and a hardware task scheduler. The core model
// implements the paper's execution primitives:
//
//   - tasks that react to events, with block/unblock/activate scheduling
//     state manipulated by other tasks and by thread completions;
//   - up to nine background threads, each running a single vector
//     instruction asynchronously, sharing the SIMD-4 fp16 datapath;
//   - hardware-managed in-memory FIFOs that activate tasks on push;
//   - tensor descriptors (package tensor) tracking instruction progress;
//   - fabric streams as instruction operands (packages fabric).
//
// Timing model: each core issues datapath work every cycle — up to
// SIMDWidth fp16 lanes, shared round-robin among the running task's
// current instruction and all runnable threads; mixed-precision FMAC ops
// cost two lanes per element ("the throughput is two FMACs per core per
// cycle"); one word per cycle crosses the ramp in each direction.
package wse

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/tensor"
)

// Config describes a simulated wafer.
type Config struct {
	// FabricW, FabricH size the tile array. The CS-1 in the paper exposes
	// a 602×595 compute fabric.
	FabricW, FabricH int
	// ClockHz is the core clock. The paper does not state it; 1.1 GHz
	// makes the measured 0.86 PFLOPS "about one third" of peak
	// (DESIGN.md §6). All wall-clock conversions use this value.
	ClockHz float64
	// MemPerTile is the per-core SRAM budget in bytes (48 KB on CS-1).
	MemPerTile int
	// SIMDWidth is the number of fp16 datapath lanes (4 on CS-1).
	SIMDWidth int
	// QueueDepth / RxDepth size the fabric queues.
	QueueDepth, RxDepth int
	// PowerKW is the system power (20 kW), used for perf/W reporting.
	PowerKW float64
	// Workers selects the simulation engine: <= 1 steps routers and
	// cores sequentially; > 1 shards the tile grid across that many
	// goroutines (fabric.Sharded). The simulated machine is bit-identical
	// either way — see the fabric package's determinism contract — so
	// this is purely a host-side throughput knob.
	Workers int
	// Engine selects the core-stepping engine (see Engine). EngineAuto
	// resolves from Workers and the -wse.engine flag override. The
	// batched and fast-forward engines imply a sequential fabric
	// stepper; Workers is ignored for them.
	Engine Engine
}

// CS1 returns the configuration of the machine in the paper, with the
// fabric dimensions overridden to w×h. The full 602×595 wafer is
// steppable under cycle simulation since core scheduling went
// event-driven (idle tiles are free); pass CS1(602, 595) for
// paper-scale runs, or smaller fabrics for quick experiments.
func CS1(w, h int) Config {
	return Config{
		FabricW: w, FabricH: h,
		ClockHz:    1.1e9,
		MemPerTile: 48 * 1024,
		SIMDWidth:  4,
		PowerKW:    20,
	}
}

func (c Config) withDefaults() Config {
	if c.ClockHz == 0 {
		c.ClockHz = 1.1e9
	}
	if c.MemPerTile == 0 {
		c.MemPerTile = 48 * 1024
	}
	if c.SIMDWidth == 0 {
		c.SIMDWidth = 4
	}
	return c
}

// Cores returns the number of cores on the fabric.
func (c Config) Cores() int { return c.FabricW * c.FabricH }

// DefaultQueueDepths reports whether the router queues and core receive
// buffers have the CS-1's depth of four words (zero selects it): the
// one shape the exact phase jumps — stencilc's exchange replay and the
// AllReduce row skip — were derived and pinned for, so their
// fast-forward gates reject any other.
func (c Config) DefaultQueueDepths() bool {
	return (c.QueueDepth <= 0 || c.QueueDepth == 4) && (c.RxDepth <= 0 || c.RxDepth == 4)
}

// PeakFlops returns the machine's peak fp16 rate: SIMDWidth fused
// multiply-accumulates (2 flops each) per core per cycle.
func (c Config) PeakFlops() float64 {
	return float64(c.Cores()) * float64(2*c.SIMDWidth) * c.ClockHz
}

// Tile is one repeated element of the wafer: a core plus its memory. The
// router lives in the shared Fabric.
type Tile struct {
	Coord fabric.Coord
	Arena *tensor.Arena
	Core  *Core

	index int // fabric tile index of Coord
}

// Machine is a simulated wafer.
//
// Core scheduling is event-driven: each fabric engine shard owns a
// runnable-core worklist, and Step walks only those lists — an idle
// tile costs nothing per cycle. Cores enter a list through the event
// edges (Activate, Unblock, LaunchThread, Subscribe, FIFO push via its
// task activation, and rx-delivery wakes from the fabric) and leave it
// the first stepped cycle they have no runnable work. The simulated
// machine state is identical to stepping every core every cycle,
// because stepping an idle core is a no-op; the machine-level
// equivalence fuzz target (FuzzMachineEquivalence) pins this against
// the sequential engine cycle for cycle.
type Machine struct {
	Cfg   Config
	Fab   *fabric.Fabric
	Tiles []*Tile

	// runnable[s] is shard s's worklist. Only the shard that owns a
	// core's tile appends to or compacts its list (host code counts as
	// the owner while the machine is not mid-Step).
	runnable [][]*Core
	// loShard maps a shard's first tile index to its shard index, so the
	// RunSharded closure can recover which worklist to walk.
	loShard map[int]int

	// coreStep is the per-shard core stepping closure, built once so
	// Step stays allocation-free on the hot path.
	coreStep func(lo, hi int)

	// steps counts Machine.Step invocations — the denominator for core
	// utilization. It can lag Fab.Cycle() when host kernels advance the
	// fabric directly (kernels.AllReduce), which must not dilute
	// utilization the cores never had a cycle to use.
	steps int64

	// engine is the resolved stepping engine (see resolveEngine).
	engine Engine
	// batch is the per-shard class-grouping scratch of the batched
	// engine, allocated once; see batch.go.
	batch []batchState

	// issue[s] is shard s's tally of what its cores' steps did; see
	// IssueStats.
	issue []shardIssue
}

// shardIssue pads one shard's tally to its own cache lines, since shards
// step concurrently under the sharded engine.
type shardIssue struct {
	IssueStats
	_ [72]byte
}

// IssueStats counts what the scalar core interpreter did, summed over
// the cores: how many core steps ran, how many Instr.Step calls they
// made and how many of those found nothing to do, and how the receive
// side went. Host-side observation only — not architectural state, not
// in the fingerprint — kept so that a core step that went back to
// polling shows up as a count and not only as a slower run. (The batched
// engine's class execution and the fast-forward paths bypass Core.step
// and are not counted.)
type IssueStats struct {
	CoreSteps     int64 // Core.step invocations
	InstrCalls    int64 // Instr.Step calls
	IdleCalls     int64 // ... that returned 0
	ZeroLaneCalls int64 // ... of instructions that never take lanes (sends, unknown types)
	RxProbes      int64 // pending receive buffers examined
	RxWords       int64 // ... that yielded a word to the subscribers
	RxStalls      int64 // ... whose word waited for a full subscriber
}

// New builds a machine.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	engine := resolveEngine(cfg)
	stepper := fabric.Sequential()
	if engine == EngineSharded {
		stepper = fabric.Sharded(cfg.Workers)
	}
	m := &Machine{
		Cfg:    cfg,
		engine: engine,
		Fab: fabric.New(fabric.Config{
			W: cfg.FabricW, H: cfg.FabricH,
			QueueDepth: cfg.QueueDepth, RxDepth: cfg.RxDepth,
			Stepper: stepper,
		}),
	}
	ranges := m.Fab.ShardRanges()
	m.runnable = make([][]*Core, len(ranges))
	m.issue = make([]shardIssue, len(ranges))
	m.loShard = make(map[int]int, len(ranges))
	for s, r := range ranges {
		m.loShard[r[0]] = s
	}
	m.Tiles = make([]*Tile, cfg.Cores())
	for i := range m.Tiles {
		at := m.Fab.CoordOf(i)
		t := &Tile{
			Coord: at,
			Arena: tensor.NewArena(cfg.MemPerTile),
			index: i,
		}
		t.Core = newCore(m, t)
		t.Core.shard = m.Fab.ShardOf(i)
		m.Tiles[i] = t
	}
	if m.engine == EngineBatched || m.engine == EngineFastForward {
		m.batch = make([]batchState, len(ranges))
		m.coreStep = func(lo, hi int) { m.stepShardBatched(m.loShard[lo]) }
	} else {
		m.coreStep = func(lo, hi int) { m.stepShard(m.loShard[lo]) }
	}
	// Words arriving at a tile's ramp wake its core; the callback runs
	// on the owning shard (see fabric.Fabric.OnRxDelivery), so the
	// worklist append is shard-local. Only deliveries on colors the
	// core subscribes to wake it: its step would not touch any other
	// receive queue, and host-side kernels that drive the fabric
	// directly (kernels.AllReduce) deliver to the same ramps on their
	// own colors — those wakes must not pollute the worklists of a
	// machine whose cores are all idle, or AllIdle would misreport an
	// idle machine and fast-forward eligibility would be lost.
	m.Fab.OnRxDelivery(func(tile int, col fabric.Color) {
		if c := m.Tiles[tile].Core; c.subMask&(1<<col) != 0 {
			c.rxArrived(col)
		}
	})
	return m
}

// stepShard steps every runnable core of shard s, compacting the
// worklist in place: cores with no further runnable work drop off and
// will be re-listed by the next event that concerns them. Waking a core
// during the walk is safe only for the core being stepped (a self-wake
// is a no-op while it is queued) — the contract Task.OnComplete
// documents.
func (m *Machine) stepShard(s int) {
	list := m.runnable[s]
	w := 0
	for i := 0; i < len(list); i++ {
		c := list[i]
		c.step()
		// runnable's fast half inlines; a fully-stable list takes no
		// writes at all.
		if c.runnable() {
			if w != i {
				list[w] = c
			}
			w++
		} else {
			c.queued = false
		}
	}
	m.runnable[s] = list[:w]
}

// anyRunnable reports whether any core is on a worklist — O(shards),
// the busy probe RunUntil and AllIdle lean on.
func (m *Machine) anyRunnable() bool {
	for _, l := range m.runnable {
		if len(l) > 0 {
			return true
		}
	}
	return false
}

// TileAt returns the tile at coordinate c.
func (m *Machine) TileAt(c fabric.Coord) *Tile { return m.Tiles[m.Fab.Index(c)] }

// Close releases the simulation worker pool (see fabric.Fabric.Close).
// Idempotent; the machine stays usable, stepping inline. Machines that
// are never Closed do not leak — the pool is reclaimed with the fabric
// — but long-lived hosts that churn through machines should Close
// promptly rather than waiting on the garbage collector.
func (m *Machine) Close() { m.Fab.Close() }

// Step advances the whole machine one cycle: runnable cores issue work,
// then the fabric moves words one hop. With a sharded engine the cores
// step on the fabric's own tile partition and its persistent worker
// pool, so every core's fabric access (Send/Recv on its own tile) stays
// within the shard that owns it; core state is tile-local, so the
// result is identical to sequential stepping. A fully quiescent machine
// skips core dispatch entirely.
func (m *Machine) Step() {
	m.steps++
	if m.anyRunnable() {
		m.Fab.RunSharded(m.coreStep)
	}
	m.Fab.Step()
}

// Cycle returns the current cycle count.
func (m *Machine) Cycle() int64 { return m.Fab.Cycle() }

// Seconds converts a cycle count to wall-clock seconds at the configured
// clock rate.
func (m *Machine) Seconds(cycles int64) float64 { return float64(cycles) / m.Cfg.ClockHz }

// RunUntil steps until done() is true, returning the cycles elapsed. It
// fails if maxCycles elapse first or if the machine wedges (no runnable
// core and no fabric movement for an extended window). The busy probe
// is the O(shards) worklist check, not a scan of every core.
func (m *Machine) RunUntil(done func() bool, maxCycles int64) (int64, error) {
	start := m.Cycle()
	idle := 0
	idleLimit := m.Cfg.FabricW + m.Cfg.FabricH + 64
	for !done() {
		if m.Cycle()-start >= maxCycles {
			return m.Cycle() - start, fmt.Errorf("wse: exceeded %d cycles", maxCycles)
		}
		movesBefore := m.Fab.Moves()
		busy := m.anyRunnable()
		m.Step()
		if m.Fab.Moves() == movesBefore && !busy {
			idle++
			if idle > idleLimit {
				return m.Cycle() - start, fmt.Errorf("wse: machine wedged (no progress for %d cycles)", idle)
			}
		} else {
			idle = 0
		}
	}
	return m.Cycle() - start, nil
}

// Fingerprint hashes the complete architectural state of the machine:
// the fabric fingerprint folded with every core's scheduler state —
// task activation/block/run flags and program counters, thread-slot
// occupancy, stream-buffer contents, send-gate state, and the datapath
// counters. Two machines that evolved identically have equal
// fingerprints every cycle regardless of stepping engine or worklist
// order; FuzzMachineEquivalence and the engine-equivalence tests pin
// the contract. FNV-1a, matching fabric.Fingerprint.
func (m *Machine) Fingerprint() uint64 {
	const prime64 = 1099511628211
	h := m.Fab.Fingerprint()
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i, tl := range m.Tiles {
		c := tl.Core
		if c.current == nil && c.nthreads == 0 && len(c.tasks) == 0 &&
			len(c.subs) == 0 && c.busyCycles == 0 {
			continue // never-programmed core: all-default state
		}
		mix(uint64(i))
		for _, t := range c.tasks {
			b := uint64(0)
			if t.activated {
				b |= 1
			}
			if t.blocked {
				b |= 2
			}
			if t.running {
				b |= 4
			}
			mix(b | uint64(t.pc)<<4)
		}
		thmask := uint64(0)
		if c.thr != nil {
			thmask = uint64(c.thr.live)
		}
		if c.sentThisCycle {
			thmask |= 1 << MaxThreads
		}
		mix(thmask)
		for si := range c.subs {
			for _, b := range c.subs[si].bufs {
				mix(uint64(b.size))
				for k := 0; k < b.size; k++ {
					mix(uint64(b.buf[(b.head+k)%len(b.buf)].Bits()))
				}
			}
		}
		mix(uint64(c.busyCycles))
		mix(uint64(c.lanesUsed))
	}
	return h
}

// AllIdle reports whether no core has runnable work and the fabric is
// quiescent — O(shards) plus the fabric's router-queue scan. A core
// holding deliverable words for a subscribed color counts as busy (it
// still has deliveries to perform), which the polling engine's
// per-core busy scan ignored; programs that complete drain those
// within a few cycles, so the steady-state answer is unchanged.
func (m *Machine) AllIdle() bool {
	return !m.anyRunnable() && m.Fab.Quiescent()
}

// ElementSteps returns how many MemOp and DotMixed steps, summed over
// the cores, ran as a slice loop over contiguous operands and how many
// took the per-element descriptor walk — host-side diagnostics, so that
// a kernel whose operands stopped being contiguous shows up as a count
// and not only as a slower run.
func (m *Machine) ElementSteps() (slice, walk int64) {
	for _, tl := range m.Tiles {
		slice += tl.Core.sliceSteps
		walk += tl.Core.walkSteps
	}
	return slice, walk
}

// IssueStats returns the interpreter tallies summed over the shards; see
// the type.
func (m *Machine) IssueStats() IssueStats {
	var t IssueStats
	for i := range m.issue {
		s := &m.issue[i].IssueStats
		t.CoreSteps += s.CoreSteps
		t.InstrCalls += s.InstrCalls
		t.IdleCalls += s.IdleCalls
		t.ZeroLaneCalls += s.ZeroLaneCalls
		t.RxProbes += s.RxProbes
		t.RxWords += s.RxWords
		t.RxStalls += s.RxStalls
	}
	return t
}
