package wse

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

// This file is the core step's specification check: it locksteps both
// engines against the step Core.step replaced.
//
// Both engines share Core.step, so comparing them with each other cannot
// see a bug in it. The reference below is the core step as it stood
// before the pending-rx mask, the cached issue list and the issue loop's
// skips: every subscribed color probed with Fab.Recv every cycle, the
// nine thread slots and the task list scanned every cycle, every unit
// called in both passes, every live thread's Done looked at every cycle,
// and the four streaming instructions as per-element loops over the
// ElemSource interface. The logic is verbatim; only the spelling of the
// state it walks (c.subs, c.thr) follows the new layout.
//
// TestCoreStepLockstep and FuzzCoreStep build one random program four
// times — on the sequential engine, on fast-forward on its default
// shards, on fast-forward on 2–7 shards with the parallel path forced,
// and on a sequential machine whose cores run refStep — and require each
// engine leg to match the reference's Machine.Fingerprint and AllIdle
// every cycle, then its arenas, FIFOs and unknown-instruction call
// counts. The programs mix streaming threads with FIFO chains into a
// priority summation task, a hub ramp contended by up to five colors,
// multicast taps, backpressured sends, boundary MemSource streams,
// subscribers that fill and stall, two subscribers per color, one buffer
// on two colors (colors drawn out of order, so registration order is not
// color order), zero-lane and lane-consuming and unknown instructions,
// empty operands behind a lane hog, threads launched from completion
// handlers above and below the retiring slot, tasks unblocked by a
// thread's completion, SIMDWidth 1–4 and queue depths 1–4, a consumer
// subscribed mid-run to words already waiting, a host Recv stealing
// subscribed words, and two restores of a mid-run snapshot. Each of
// these mutations of the new code was applied and seen to fail
// TestCoreStepLockstep:
//
//   - rxArrived does not set the pending bit (delivery lost);
//   - Subscribe does not set it (words that were already waiting);
//   - the pending bits are walked in color order instead of
//     registration order;
//   - the lane cut-off is applied to SendMem (sends stop at 0 lanes);
//   - the dry-stream skip fires with one element still buffered;
//   - the progress gate ignores a later unit's push (progress not
//     bumped on n > 0), or an unknown instruction's call, or skips every
//     second-pass call;
//   - MemOp or DotMixed is cut off at zero lanes before its first call
//     (started/began never set);
//   - LaunchThread does not mark the slot for the retire scan (a thread
//     born Done is never retired), or does not mark the issue list stale;
//   - the retire scan does not pick up threads a handler launched above
//     the retiring slot, or is not told which threads the issue loop
//     called;
//   - Activate or Unblock does not set the scheduler's ready hint.
//
// Three more need a state the random programs reach too rarely and have
// a case each in TestCoreStepEdges: Restore not re-marking the pending
// bits, Restore not setting the ready hint, a FIFOAdd thread's Done not
// looked at in a cycle it was not called. "Pending bit not cleared by
// the emptying pop" changes no state — it only brings the polling back —
// and fails as a count instead: kernels.TestSpMV3DIssueCounters.
// "Multicast push order swapped" is the fabric's half:
// fabric.TestClaimLockstep.

// refStep is the pre-PR-20 Core.step.
func (c *Core) refStep() {
	c.sentThisCycle = false

	// 1. Distribute arriving fabric words to stream subscribers: one word
	// per color per cycle, only if every subscriber has space.
	for i := range c.subs {
		col, bufs := c.subs[i].col, c.subs[i].bufs
		ok := true
		for _, b := range bufs {
			if b.full() {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if w, got := c.m.Fab.Recv(c.tile.Coord, col); got {
			lo, hi := w.UnpackF16()
			for _, b := range bufs {
				b.refPush(lo, hi)
			}
		}
	}

	// 2. Pick a task if none is running.
	if c.current == nil {
		c.current = c.refPick()
		if c.current != nil {
			c.current.running = true
			c.current.activated = false
			c.current.pc = 0
		}
	}

	// 3. Share datapath lanes round-robin among the running task's current
	// instruction and all threads.
	lanes := c.m.Cfg.SIMDWidth
	var units []Instr
	if c.current != nil && c.current.pc < len(c.current.Instrs) {
		units = append(units, c.current.Instrs[c.current.pc])
	}
	if c.nthreads > 0 {
		for s := 0; s < MaxThreads; s++ {
			if c.thr.live&(1<<s) != 0 {
				units = append(units, c.thr.slots[s].instr)
			}
		}
	}
	used := 0
	for pass := 0; pass < 2 && len(units) > 0; pass++ {
		for _, u := range units {
			give := lanes
			if give < 0 {
				give = 0
			}
			n := refInstrStep(u, c, give)
			lanes -= n
			used += n
		}
		if lanes <= 0 {
			break
		}
	}
	if used > 0 {
		c.busyCycles++
		c.lanesUsed += int64(used)
	}

	// 4. Retire completed work.
	if c.current != nil {
		t := c.current
		for t.pc < len(t.Instrs) && t.Instrs[t.pc].Done() {
			t.pc++
		}
		if t.pc >= len(t.Instrs) {
			t.running = false
			c.current = nil
			if t.OnComplete != nil {
				t.OnComplete(c)
			}
		}
	}
	if c.nthreads > 0 {
		for s := 0; s < MaxThreads; s++ {
			if c.thr.live&(1<<s) != 0 && c.thr.slots[s].instr.Done() {
				th := c.thr.slots[s]
				c.thr.slots[s] = thread{}
				c.thr.live &^= 1 << s
				c.nthreads--
				if th.onDone != nil {
					th.onDone(c)
				}
			}
		}
	}
}

func (c *Core) refPick() *Task {
	var fallback *Task
	for _, t := range c.tasks {
		if !t.activated || t.blocked {
			continue
		}
		if t.Priority {
			return t
		}
		if fallback == nil {
			fallback = t
		}
	}
	return fallback
}

// refRunnable is the pre-PR-20 Core.runnable.
func (c *Core) refRunnable() bool {
	if c.current != nil || c.nthreads > 0 {
		return true
	}
	for _, t := range c.tasks {
		if t.activated && !t.blocked {
			return true
		}
	}
	for i := range c.subs {
		if c.m.Fab.RxLen(c.tile.Coord, c.subs[i].col) == 0 {
			continue
		}
		deliverable := true
		for _, b := range c.subs[i].bufs {
			if b.full() {
				deliverable = false
				break
			}
		}
		if deliverable {
			return true
		}
	}
	return false
}

func (b *StreamBuf) refPush(lo, hi fp16.Float16) {
	b.buf[(b.head+b.size)%len(b.buf)] = lo
	b.size++
	b.buf[(b.head+b.size)%len(b.buf)] = hi
	b.size++
}

// refInstrStep runs the pre-PR-20 Step of the four streaming
// instructions; every other type steps itself.
func refInstrStep(in Instr, c *Core, lanes int) int {
	used := 0
	switch m := in.(type) {
	case *MulToFIFO:
		for used < lanes && m.done < m.Total && m.Src.avail() > 0 && !m.FIFO.Full() {
			v := m.Src.take()
			p := fp16.Mul(m.Arena.At(m.Coeff.Next()), v)
			if !m.FIFO.Push(m.Arena, p) {
				panic("wse: FIFO push failed after Full check")
			}
			m.done++
			used++
		}
	case *StreamAdd:
		for used < lanes && m.done < m.Total && m.Src.avail() > 0 {
			p := m.Acc.Next()
			m.Arena.Set(p, fp16.Add(m.Arena.At(p), m.Src.take()))
			m.done++
			used++
		}
	case *StreamStore:
		for used < lanes && m.done < m.Total && m.Src.avail() > 0 {
			m.Arena.Set(m.Dst.Next(), m.Src.take())
			m.done++
			used++
		}
	case *FIFOAdd:
		for used < lanes && m.added < m.Total && m.FIFO.Len() > 0 {
			v, _ := m.FIFO.Pop(m.Arena)
			p := m.Acc.Next()
			m.Arena.Set(p, fp16.Add(m.Arena.At(p), v))
			m.added++
			used++
		}
	default:
		return in.Step(c, lanes)
	}
	return used
}

// useRefStep makes m step its cores with refStep: the sequential
// worklist walk, with the reference step and runnable check.
func useRefStep(m *Machine) {
	m.coreStep = func(s int) {
		list := m.runnable[s]
		w := 0
		for _, c := range list {
			c.refStep()
			if c.refRunnable() {
				list[w] = c
				w++
			} else {
				c.queued = false
			}
		}
		m.runnable[s] = list[:w]
	}
}

// refRequeue rebuilds a reference machine's worklists after Restore,
// which listed the cores by the new runnable check.
func refRequeue(m *Machine) {
	for s := range m.runnable {
		for _, c := range m.runnable[s] {
			c.queued = false
		}
		m.runnable[s] = m.runnable[s][:0]
	}
	for _, tl := range m.Tiles {
		if tl.Core.refRunnable() {
			tl.Core.wake()
		}
	}
}

// ------------------------------------------------- unknown instructions

// testSpin is an instruction type the issue loop does not know: it takes
// up to want lanes on each of its first n calls that are offered any.
// Both machines must call it the same number of times.
type testSpin struct {
	want, n     int
	took, calls int
}

func (s *testSpin) Step(c *Core, lanes int) int {
	s.calls++
	if s.took >= s.n || lanes == 0 {
		return 0
	}
	s.took++
	return min(lanes, s.want)
}
func (s *testSpin) Done() bool { return s.took >= s.n }
func (s *testSpin) reset()     { s.took = 0 }

// testPoke is an unknown zero-lane instruction that changes what another
// unit sees without reporting lanes: every call pushes one element into
// a FIFO (if there is room) until n are in — or, draining, pops one
// until n are out, which can finish a FIFOAdd thread behind its back.
type testPoke struct {
	fifo         *tensor.FIFO
	arena        *tensor.Arena
	n            int
	drain        bool
	moved, calls int
}

func (p *testPoke) Step(c *Core, lanes int) int {
	p.calls++
	if p.moved >= p.n {
		return 0
	}
	if p.drain {
		if _, ok := p.fifo.Pop(p.arena); ok {
			p.moved++
		}
	} else if p.fifo.Push(p.arena, fp16.FromFloat64(float64(p.moved%7)/4)) {
		p.moved++
	}
	return 0
}
func (p *testPoke) Done() bool { return p.moved >= p.n }
func (p *testPoke) reset()     { p.moved = 0 }

// ------------------------------------------------------ random programs

// lockProgram is one random program built on one machine.
type lockProgram struct {
	m *Machine
	// arm resets every instruction, launches every thread and activates
	// the tasks: once after construction, and again after the mid-run
	// snapshot/restore.
	arm func()
	// rx lists the (tile, color) pairs with a ramp delivery, for the host
	// Recv that steals a subscribed word.
	rx [][2]int
	// calls reports the unknown instructions' call counts.
	calls func() []int
	fifos []*tensor.FIFO
	// subscribeLate, if set, attaches a consumer to a color whose words
	// have been piling up at a ramp nobody had subscribed to; the run
	// calls it once, some cycles in.
	subscribeLate func()
}

type lockShape struct {
	w, h, simd, qdepth, rxdepth int
}

// buildLockProgram builds the program drawn from seed on a machine with
// the given engine and Workers. Every draw comes from one rng seeded the same way, so
// two builds are identical.
func buildLockProgram(seed int64, sh lockShape, e Engine, workers int) *lockProgram {
	cfg := CS1(sh.w, sh.h)
	cfg.SIMDWidth = sh.simd
	cfg.QueueDepth, cfg.RxDepth = sh.qdepth, sh.rxdepth
	cfg.Engine, cfg.Workers = e, workers
	m := New(cfg)
	p := &lockProgram{m: m}
	r := rand.New(rand.NewSource(seed))
	w, h := sh.w, sh.h

	var arms []func()
	var counted []func() int
	nextSlot := make([]int, w*h)
	chained := make([]bool, w*h)
	// launch registers a thread for arm, if the tile has a slot left.
	// Slots 0 and 8 are kept for threads launched from a completion
	// handler: the first thread of a tile may, when it retires, launch a
	// short instruction below itself (slot 0: the retire scan has passed
	// it) and one born Done above itself (slot 8: the same scan must still
	// reach it).
	launch := func(ti int, in Instr, reset func(), onDone func(*Core)) {
		if nextSlot[ti] >= MaxThreads-2 {
			return
		}
		slot := nextSlot[ti] + 1
		nextSlot[ti]++
		core := m.Tiles[ti].Core
		if onDone == nil && !chained[ti] && r.Intn(3) == 0 {
			chained[ti] = true
			lo := &testSpin{want: 1, n: r.Intn(3) + 1}
			hi := &StreamAdd{Src: StreamSource{B: &NewStreamBufs(1, 1)[0]}, Arena: m.Tiles[ti].Arena} // Total 0
			counted = append(counted, func() int { return lo.calls })
			onDone = func(c *Core) {
				lo.reset()
				c.LaunchThread(0, "lo", lo, nil)
				c.LaunchThread(MaxThreads-1, "hi", hi, nil)
			}
		}
		arms = append(arms, func() {
			reset()
			core.LaunchThread(slot, fmt.Sprintf("t%d", slot), in, onDone)
		})
	}
	fill := func(a *tensor.Arena, base, n int) {
		for i := 0; i < n; i++ {
			a.Set(base+i, fp16.FromFloat64(float64(r.Intn(64))/8-2))
		}
	}

	// Per-tile summation task: a priority task of FIFOAdds, activated by
	// pushes, as Listing 1's sumtask.
	type sumState struct {
		task *Task
		acc  int
	}
	sums := make([]*sumState, w*h)
	// fifoFor gives tile ti a new FIFO drained by its summation task.
	fifoFor := func(ti, total int) *tensor.FIFO {
		tl := m.Tiles[ti]
		if sums[ti] == nil {
			st := &sumState{acc: tl.Arena.MustAlloc("acc", 64)}
			st.task = tl.Core.AddTask(&Task{Name: "sum", Priority: r.Intn(3) > 0})
			sums[ti] = st
		}
		st := sums[ti]
		depth := r.Intn(7) + 2
		f := tensor.NewFIFO(tl.Arena.MustAlloc("fifo", depth), depth)
		p.fifos = append(p.fifos, f)
		f.OnPush = st.task
		add := &FIFOAdd{FIFO: f, Acc: tensor.Vec1D(st.acc, min(total, 64)), Arena: tl.Arena, Total: min(total, 64)}
		st.task.Instrs = append(st.task.Instrs, add)
		arms = append(arms, add.Reset)
		return f
	}

	// Flows: color c streams total elements from a SendMem at src along a
	// straight line; the source may loop the word back to its own ramp
	// (the Listing 1 broadcast), tiles on the way may tap it (multicast),
	// the last tile delivers it. Half the flows end at one hub tile, so
	// its ramp is contended by up to five colors.
	hub := fabric.Coord{X: r.Intn(w), Y: r.Intn(h)}
	nFlows := r.Intn(6) + 1
	// Colors in no particular order, so registration order and color
	// order differ where a tile subscribes to several.
	cols := r.Perm(fabric.MaxColors)[:nFlows]
	var late []func()
	for fi := 0; fi < nFlows; fi++ {
		col := fabric.Color(cols[fi])
		var src fabric.Coord
		var dir fabric.Port
		hops := 0
		if r.Intn(2) == 0 {
			// Toward the hub along its row or column.
			if r.Intn(2) == 0 && w > 1 {
				src = fabric.Coord{X: r.Intn(w), Y: hub.Y}
				dir = fabric.East
				if src.X > hub.X {
					dir = fabric.West
				}
				hops = max(src.X-hub.X, hub.X-src.X)
			} else {
				src = fabric.Coord{X: hub.X, Y: r.Intn(h)}
				dir = fabric.South
				if src.Y > hub.Y {
					dir = fabric.North
				}
				hops = max(src.Y-hub.Y, hub.Y-src.Y)
			}
		} else {
			src = fabric.Coord{X: r.Intn(w), Y: r.Intn(h)}
			dir = []fabric.Port{fabric.North, fabric.East, fabric.South, fabric.West}[r.Intn(4)]
			room := map[fabric.Port]int{fabric.East: w - 1 - src.X, fabric.West: src.X, fabric.South: h - 1 - src.Y, fabric.North: src.Y}[dir]
			hops = r.Intn(room + 1)
		}
		var receivers []fabric.Coord
		dx, dy := dir.Delta()
		for k := 0; k <= hops; k++ {
			at := fabric.Coord{X: src.X + k*dx, Y: src.Y + k*dy}
			in := dir.Opposite()
			if k == 0 {
				in = fabric.Ramp
			}
			var outs fabric.PortMask
			if k < hops {
				outs |= fabric.Mask(dir)
			}
			if k == hops || r.Intn(3) == 0 {
				outs |= fabric.Mask(fabric.Ramp)
				receivers = append(receivers, at)
			}
			m.Fab.SetRoute(at, in, col, outs)
		}

		total := r.Intn(24) + 1
		st := m.TileAt(src)
		base := st.Arena.MustAlloc("tx", total)
		fill(st.Arena, base, total)
		send := &SendMem{Color: col, Src: tensor.Vec1D(base, total), Arena: st.Arena, Total: total}
		launch(m.Fab.Index(src), send, send.Reset, nil)

		for _, at := range receivers {
			ti := m.Fab.Index(at)
			tl := m.Tiles[ti]
			p.rx = append(p.rx, [2]int{ti, int(col)})
			nb := r.Intn(3)
			if nb == 0 && p.subscribeLate == nil && nextSlot[ti] < MaxThreads-2 {
				// Nobody listens yet: the words pile up at the ramp until
				// the run subscribes a consumer, some cycles in.
				slot := nextSlot[ti] + 1
				nextSlot[ti]++
				buf := &NewStreamBufs(1, 2)[0]
				in := &StreamAdd{Src: StreamSource{B: buf}, Acc: tensor.Vec1D(tl.Arena.MustAlloc("late", total), total),
					Arena: tl.Arena, Total: total}
				core, on := tl.Core, false
				start := func() {
					in.Reset()
					core.LaunchThread(slot, "late", in, nil)
				}
				p.subscribeLate = func() {
					core.Subscribe(col, buf)
					on = true
					start()
				}
				arms = append(arms, func() {
					if on {
						start()
					}
				})
			}
			for ; nb > 0; nb-- {
				buf := &NewStreamBufs(1, r.Intn(3)+1)[0]
				tl.Core.Subscribe(col, buf)
				if fi+1 < nFlows && r.Intn(3) == 0 {
					// One buffer on two colors: the next flow's words land
					// here too, if it turns out to deliver to this tile.
					next := fabric.Color(cols[fi+1])
					late = append(late, func() {
						for in := fabric.Port(0); in < fabric.NumPorts; in++ {
							if m.Fab.Route(at, in, next).Has(fabric.Ramp) {
								tl.Core.Subscribe(next, buf)
								return
							}
						}
					})
				}
				n := r.Intn(total+4) + 1 // sometimes more than will ever arrive
				src := StreamSource{B: buf}
				switch r.Intn(6) {
				case 0: // no consumer: the subscriber fills and the color stalls
				case 1:
					acc := tl.Arena.MustAlloc("rxacc", n)
					in := &StreamAdd{Src: src, Acc: tensor.Vec1D(acc, n), Arena: tl.Arena, Total: n}
					launch(ti, in, in.Reset, nil)
				case 2:
					// A strided destination takes the descriptor walk.
					dst := tl.Arena.MustAlloc("rxdst", 2*n)
					in := &StreamStore{Src: src, Dst: tensor.Strided(dst, n, r.Intn(2)+1), Arena: tl.Arena, Total: n}
					launch(ti, in, in.Reset, nil)
				case 3:
					// A private FIFO drained by a FIFOAdd thread, whose Done
					// follows what the multiplier pushes.
					k := tl.Arena.MustAlloc("coeff", n)
					fill(tl.Arena, k, n)
					f := tensor.NewFIFO(tl.Arena.MustAlloc("pfifo", 3), 3)
					p.fifos = append(p.fifos, f)
					in := &MulToFIFO{Src: src, Coeff: tensor.Vec1D(k, n), FIFO: f, Arena: tl.Arena, Total: n}
					launch(ti, in, in.Reset, nil)
					add := &FIFOAdd{FIFO: f, Acc: tensor.Vec1D(tl.Arena.MustAlloc("pacc", n), n), Arena: tl.Arena, Total: n}
					launch(ti, add, add.Reset, nil)
					if r.Intn(2) == 0 {
						thief := &testPoke{fifo: f, arena: tl.Arena, n: r.Intn(3) + 1, drain: true}
						counted = append(counted, func() int { return thief.calls })
						launch(ti, thief, thief.reset, nil)
					}
				default:
					k := tl.Arena.MustAlloc("coeff", n)
					fill(tl.Arena, k, n)
					in := &MulToFIFO{Src: src, Coeff: tensor.Vec1D(k, n), FIFO: fifoFor(ti, n), Arena: tl.Arena, Total: n}
					launch(ti, in, in.Reset, nil)
				}
			}
		}
	}

	for _, f := range late {
		f()
	}

	// Per-tile extras: boundary MemSource streams, unknown instructions,
	// MemOp/DotMixed task chains with block/unblock edges, and threads
	// born Done.
	for ti := 0; ti < w*h; ti++ {
		tl := m.Tiles[ti]
		a := tl.Arena
		if r.Intn(4) == 0 {
			// Boundary stream: Z reads of one word through a zero stride.
			n := r.Intn(12) + 1
			one := a.MustAlloc("one", 1)
			a.Set(one, fp16.FromFloat64(0.5))
			k := a.MustAlloc("bcoeff", n)
			fill(a, k, n)
			d := tensor.Strided(one, n, 0)
			in := &MulToFIFO{Src: MemSource{A: a, D: &d}, Coeff: tensor.Vec1D(k, n), FIFO: fifoFor(ti, n), Arena: a, Total: n}
			launch(ti, in, in.Reset, nil)
		}
		if r.Intn(4) == 0 {
			in := &testSpin{want: r.Intn(3) + 1, n: r.Intn(10) + 1}
			counted = append(counted, func() int { return in.calls })
			launch(ti, in, in.reset, nil)
		}
		if r.Intn(5) == 0 {
			n := r.Intn(6) + 1
			in := &testPoke{fifo: fifoFor(ti, n), arena: a, n: n}
			counted = append(counted, func() int { return in.calls })
			launch(ti, in, in.reset, nil)
		}
		if r.Intn(8) == 0 {
			in := &StreamAdd{Src: StreamSource{B: &NewStreamBufs(1, 1)[0]}, Arena: a} // Total 0: born Done
			launch(ti, in, in.Reset, nil)
		}
		if r.Intn(5) == 0 {
			// Empty operands behind a lane hog: offered no lanes, their
			// first call still has to happen (it sets started/began, which
			// is all that makes an empty instruction Done).
			hog := &testSpin{want: 4, n: r.Intn(4) + 1}
			counted = append(counted, func() int { return hog.calls })
			launch(ti, hog, hog.reset, nil)
			z := a.MustAlloc("z", 1)
			mo := &MemOp{Kind: OpCopy, Arena: a, Dst: tensor.Vec1D(z, 0), A: tensor.Vec1D(z, 0)}
			launch(ti, mo, mo.Reset, nil)
			dm := &DotMixed{A: tensor.Vec1D(z, 0), B: tensor.Vec1D(z, 0), Arena: a}
			launch(ti, dm, dm.Reset, nil)
		}
		if r.Intn(4) == 0 {
			// A task activated while blocked, unblocked by a thread's
			// completion long after the scheduler last found nothing to pick.
			x := a.MustAlloc("x", 4)
			fill(a, x, 4)
			op := &MemOp{Kind: OpAdd, Arena: a, Dst: tensor.Vec1D(x, 4), A: tensor.Vec1D(x, 4), B: tensor.Vec1D(x, 4)}
			tb := tl.Core.AddTask(&Task{Name: "tb", Instrs: []Instr{op}})
			spin := &testSpin{want: 1, n: r.Intn(6) + 2}
			counted = append(counted, func() int { return spin.calls })
			core := tl.Core
			launch(ti, spin, func() {
				spin.reset()
				op.Reset()
				core.Block(tb)
				core.Activate(tb)
			}, func(c *Core) { c.Unblock(tb) })
		}
		if r.Intn(3) != 0 {
			continue
		}
		vn := r.Intn(12) + 2
		va := a.MustAlloc("a", vn)
		vb := a.MustAlloc("b", vn)
		fill(a, va, vn)
		fill(a, vb, vn)
		kind := []MemOpKind{OpMul, OpAdd, OpCopy, OpAxpy}[r.Intn(4)]
		op0 := &MemOp{Kind: kind, Arena: a, S: fp16.FromFloat64(0.5),
			Dst: tensor.Vec1D(vb, vn), A: tensor.Vec1D(va, vn), B: tensor.Vec1D(vb, vn)}
		var out float32
		dot := &DotMixed{A: tensor.Vec1D(va, vn), B: tensor.Vec1D(vb, vn), Arena: a, Out: &out}
		op1 := &MemOp{Kind: OpCopy, Arena: a, Dst: tensor.Strided(va, vn/2, 2), A: tensor.Vec1D(vb, vn/2)}
		t0 := tl.Core.AddTask(&Task{Name: "t0", Priority: r.Intn(2) == 0, Instrs: []Instr{op0, dot}})
		t1 := tl.Core.AddTask(&Task{Name: "t1", Instrs: []Instr{op1}})
		mode := r.Intn(3)
		rounds := 0
		core := tl.Core
		t0.OnComplete = func(c *Core) {
			c.Block(t0)
			c.Activate(t1)
		}
		t1.OnComplete = func(c *Core) {
			if rounds++; mode == 0 && rounds < 3 {
				op0.Reset()
				dot.Reset()
				op1.Reset()
				c.Activate(t0)
				c.Unblock(t0) // activated first: the Unblock edge is what makes it ready
			}
		}
		blocked := r.Intn(4) == 0
		arms = append(arms, func() {
			op0.Reset()
			dot.Reset()
			op1.Reset()
			rounds = 0
			core.Unblock(t0)
			if blocked {
				core.Block(t0)
			}
			core.Activate(t0)
		})
	}

	p.arm = func() {
		for _, f := range arms {
			f()
		}
	}
	p.calls = func() []int {
		out := make([]int, len(counted))
		for i, f := range counted {
			out[i] = f()
		}
		return out
	}
	return p
}

// runCoreStepLockstep builds the seed's program on three engine legs —
// sequential, fast-forward on its default shards and fast-forward on 2–7
// shards with the parallel path forced — and on a reference-step machine,
// and steps all four side by side. Machine.Step takes no jumps, so the
// fast-forward legs check stepping on one shard and on several.
func runCoreStepLockstep(t *testing.T, seed int64, shape, cycles uint64) {
	sh := lockShape{
		w: int(shape&0xff)%5 + 2, h: int(shape>>8&0xff)%5 + 2,
		simd: int(shape>>16&0xff)%4 + 1, qdepth: int(shape>>24&0xff)%4 + 1, rxdepth: int(shape>>32&0xff)%4 + 1,
	}
	n := int(cycles%160) + 16
	shards := rand.New(rand.NewSource(seed^int64(shape))).Intn(6) + 2
	legs := []*lockProgram{
		buildLockProgram(seed, sh, EngineSequential, 0),
		buildLockProgram(seed, sh, EngineFastForward, 0),
		buildLockProgram(seed, sh, EngineFastForward, shards),
	}
	fabric.ForceParallel(legs[2].m.Fab)
	name := make([]string, len(legs))
	for i, l := range legs {
		defer l.m.Close()
		name[i] = fmt.Sprintf("%s/%d", l.m.EngineName(), len(l.m.Fab.ShardRanges()))
	}
	b := buildLockProgram(seed, sh, EngineSequential, 0)
	useRefStep(b.m)
	all := append(legs[:len(legs):len(legs)], b)
	steal := rand.New(rand.NewSource(seed + 99))

	cyc := 0
	step := func() {
		if len(b.rx) > 0 && steal.Intn(12) == 0 {
			// The host takes a word a core has subscribed to.
			at := b.rx[steal.Intn(len(b.rx))]
			co, col := b.m.Fab.CoordOf(at[0]), fabric.Color(at[1])
			wb, okb := b.m.Fab.Recv(co, col)
			for i, a := range legs {
				if wa, oka := a.m.Fab.Recv(co, col); wa != wb || oka != okb {
					t.Fatalf("cycle %d (%s): host Recv diverges: %v %v vs %v %v", cyc, name[i], wa, oka, wb, okb)
				}
			}
		}
		for _, l := range all {
			l.m.Step()
		}
		cyc++
		for i, a := range legs {
			if fa, fb := a.m.Fingerprint(), b.m.Fingerprint(); fa != fb {
				t.Fatalf("cycle %d (%s, %+v): fingerprint %#x, reference step %#x", cyc, name[i], sh, fa, fb)
			}
			if ia, ib := a.m.AllIdle(), b.m.AllIdle(); ia != ib {
				t.Fatalf("cycle %d (%s, %+v): AllIdle %v, reference step %v", cyc, name[i], sh, ia, ib)
			}
		}
	}
	compare := func() {
		for li, a := range legs {
			for i := range a.m.Tiles {
				wa := a.m.Tiles[i].Arena.Used() / tensor.BytesPerWord
				ma, mb := a.m.Tiles[i].Arena.Slice(0, wa), b.m.Tiles[i].Arena.Slice(0, wa)
				for k := range ma {
					if ma[k] != mb[k] {
						t.Fatalf("after %d cycles (%s, %+v): tile %d arena[%d] = %v, reference step %v",
							cyc, name[li], sh, i, k, ma[k], mb[k])
					}
				}
			}
			for i := range a.fifos {
				if a.fifos[i].Len() != b.fifos[i].Len() {
					t.Fatalf("after %d cycles (%s): FIFO %d holds %d, reference step %d", cyc, name[li], i, a.fifos[i].Len(), b.fifos[i].Len())
				}
			}
			ca, cb := a.calls(), b.calls()
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("after %d cycles (%s, %+v): unknown instruction %d called %d times, reference step %d",
						cyc, name[li], sh, i, ca[i], cb[i])
				}
			}
		}
	}

	// settle steps until the machines are idle; false means a wedged send
	// keeps its thread alive and there is nothing to capture.
	settle := func() bool {
		for i := 0; i < 400 && !b.m.AllIdle(); i++ {
			step()
		}
		compare()
		return b.m.AllIdle()
	}
	restore := func(snap *Snapshot) {
		for _, l := range all {
			if err := l.m.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
		refRequeue(b.m)
		for i, a := range legs {
			if fa, fb := a.m.Fingerprint(), b.m.Fingerprint(); fa != fb {
				t.Fatalf("after restore (%s): fingerprint %#x, reference step %#x", name[i], fa, fb)
			}
		}
	}
	arm := func() {
		for _, l := range all {
			l.arm()
		}
	}

	arm()
	for i := 0; i < n; i++ {
		if i == n/3 && b.subscribeLate != nil {
			for _, l := range all {
				l.subscribeLate()
			}
		}
		step()
	}
	compare()

	// Mid-run snapshot/restore: let the program settle (stalled colors
	// leave undelivered words at the ramps), capture the sharded leg's
	// machine, load the capture into every machine and run the program
	// again; then go back to the same capture once more, now on machines
	// whose receive buffers the second run has drained.
	if !settle() {
		return
	}
	snap, err := legs[2].m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot of an idle machine: %v", err)
	}
	for round := 0; round < 2; round++ {
		restore(snap)
		arm()
		for i := 0; i < n; i++ {
			step()
		}
		if !settle() {
			return
		}
	}
}

// TestCoreStepLockstep runs the lockstep over a spread of seeds, shapes
// (fabric 2–6 × 2–6, SIMDWidth 1–4, queue depths 1–4) and run lengths.
func TestCoreStepLockstep(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	r := rand.New(rand.NewSource(20))
	for i := 0; i < seeds; i++ {
		runCoreStepLockstep(t, int64(i+1), r.Uint64(), r.Uint64())
	}
}

// FuzzCoreStep is the open-ended form of TestCoreStepLockstep (make
// fuzz, CI fuzz-smoke); testdata/fuzz/FuzzCoreStep holds more seeds.
func FuzzCoreStep(f *testing.F) {
	f.Add(int64(1), uint64(0x0101030303), uint64(40))
	f.Add(int64(7), uint64(0x0402000201), uint64(120))
	f.Add(int64(-3), uint64(0x0000010002), uint64(64))
	f.Add(int64(2025), uint64(0x0303020100), uint64(96))
	f.Add(int64(1), uint64(0x0303), uint64(40))
	f.Add(int64(7), uint64(0x0204), uint64(24))
	f.Add(int64(-3), uint64(0x0602), uint64(64))
	f.Add(int64(99), uint64(0x0505), uint64(96))
	f.Add(int64(11), uint64(0x0404), uint64(48))
	f.Add(int64(-57), uint64(0x0306), uint64(80))
	f.Add(int64(2025), uint64(0x0503), uint64(56))
	f.Add(int64(-1048576), uint64(0x0205), uint64(112))
	f.Fuzz(runCoreStepLockstep)
}

// stepBoth steps a new-step and a reference-step machine n cycles side by
// side, requiring equal fingerprints.
func stepBoth(t *testing.T, a, b *Machine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		a.Step()
		b.Step()
		if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
			t.Fatalf("cycle %d: fingerprint %#x, reference step %#x", i+1, fa, fb)
		}
	}
}

// TestCoreStepEdges pins three edges the random programs reach too
// rarely to be relied on; each failed when the line it names was removed.
func TestCoreStepEdges(t *testing.T) {
	pair := func(build func(m *Machine)) (a, b *Machine) {
		a, b = New(CS1(2, 1)), New(CS1(2, 1))
		useRefStep(b)
		build(a)
		build(b)
		return a, b
	}

	// Restore must re-mark the pending bits: the capture holds words at a
	// ramp whose bit the restored-onto core has since cleared.
	t.Run("RestoreMarksPending", func(t *testing.T) {
		type prog struct {
			buf  *StreamBuf
			send *SendMem
			add  *StreamAdd
		}
		progs := map[*Machine]*prog{}
		a, b := pair(func(m *Machine) {
			fabric.BuildPath(m.Fab, fabric.Coord{}, fabric.East, 1, 3)
			src, dst := m.Tiles[0], m.Tiles[1]
			p := &prog{buf: &NewStreamBufs(1, 1)[0]}
			p.send = &SendMem{Color: 3, Src: tensor.Vec1D(src.Arena.MustAlloc("tx", 8), 8), Arena: src.Arena, Total: 8}
			p.add = &StreamAdd{Src: StreamSource{B: p.buf}, Acc: tensor.Vec1D(dst.Arena.MustAlloc("acc", 8), 8), Arena: dst.Arena, Total: 8}
			dst.Core.Subscribe(3, p.buf)
			src.Core.LaunchThread(0, "tx", p.send, nil)
			progs[m] = p
		})
		stepBoth(t, a, b, 40) // one word in the subscriber, three at the ramp, nobody consuming
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// Drain: the consumer takes all eight elements, the core sees the
		// receive buffer empty and clears its bit.
		for _, m := range []*Machine{a, b} {
			m.Tiles[1].Core.LaunchThread(0, "rx", progs[m].add, nil)
		}
		stepBoth(t, a, b, 40)
		if !a.AllIdle() || !progs[a].add.Done() {
			t.Fatal("consumer did not drain the stream")
		}
		for _, m := range []*Machine{a, b} {
			if err := m.Restore(snap); err != nil {
				t.Fatal(err)
			}
			progs[m].add.Reset()
			m.Tiles[1].Core.LaunchThread(0, "rx", progs[m].add, nil)
		}
		refRequeue(b)
		stepBoth(t, a, b, 40)
		if !progs[a].add.Done() {
			t.Fatal("words restored into the receive buffer were never delivered")
		}
	})

	// Restore must let the scheduler see a task the capture marks
	// activated, whatever its ready hint said before.
	t.Run("RestoreMakesReady", func(t *testing.T) {
		ops := map[*Machine]*MemOp{}
		a, b := pair(func(m *Machine) {
			tl := m.Tiles[0]
			x := tl.Arena.MustAlloc("x", 4)
			ops[m] = &MemOp{Kind: OpCopy, Arena: tl.Arena, Dst: tensor.Vec1D(x, 4), A: tensor.Vec1D(x, 4)}
			tl.Core.AddTask(&Task{Name: "t", Instrs: []Instr{ops[m]}})
		})
		stepBoth(t, a, b, 2) // a pick finds nothing: the hint goes false
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Cores[0].Tasks[0].Flags = 1 // activated
		for _, m := range []*Machine{a, b} {
			if err := m.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
		refRequeue(b)
		stepBoth(t, a, b, 4)
		if !ops[a].Done() {
			t.Fatal("a task restored as activated never ran")
		}
	})

	// A FIFOAdd thread is Done once its FIFO is empty, and another unit
	// can empty it in a cycle that offered the FIFOAdd no lanes.
	t.Run("FIFOAddDoneBehindItsBack", func(t *testing.T) {
		a, b := pair(func(m *Machine) {
			tl := m.Tiles[0]
			f := tensor.NewFIFO(tl.Arena.MustAlloc("fifo", 4), 4)
			for i := 0; i < 3; i++ { // the thief needs three cycles: past the launch cycle's scan
				f.Push(tl.Arena, fp16.One)
			}
			acc := tl.Arena.MustAlloc("acc", 4)
			tl.Core.LaunchThread(1, "hog", &testSpin{want: 4, n: 6}, nil)
			tl.Core.LaunchThread(2, "add", &FIFOAdd{FIFO: f, Acc: tensor.Vec1D(acc, 4), Arena: tl.Arena, Total: 4}, nil)
			tl.Core.LaunchThread(3, "thief", &testPoke{fifo: f, arena: tl.Arena, n: 3, drain: true}, nil)
		})
		stepBoth(t, a, b, 8)
	})
}
