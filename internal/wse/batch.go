package wse

// This file is the batched core-stepping engine (EngineBatched): one
// decoded instruction executed across every core that is about to do
// the same thing this cycle.
//
// The wafer interior of the compiled stencil kernels is thousands of
// tiles at the same pc of the same task running the same MemOp/DotMixed
// over same-length contiguous operands. The scalar interpreter pays the
// full dispatch — worklist, task pick, interface call, tensor odometer —
// per core per cycle. The batched engine instead classifies
// each runnable core by the instruction shape it will execute this
// cycle (classify), groups equal shapes into classes, and runs each
// class with the cycle's element count decided once and each member's
// elements run through the instruction's own slice step (execClass).
//
// Exactness contract: classification happens every cycle against the
// core's live state, and classification IS the divergence check — a
// core with pending rx words, live threads, a non-contiguous or
// length-mismatched operand, or any instruction outside the batchable
// set simply fails eligibility and takes the scalar step() for that
// cycle. The batched execution calls the very slice step MemOp.Step /
// DotMixed.Step take for contiguous operands, updates the same counters
// and scheduler state, and retires tasks through the same logic — so
// the machine state after every cycle is bit-identical to the
// sequential engine's, which the difftest package and
// FuzzMachineEquivalence enforce.
//
// Determinism note: within one cycle cores only touch their own tile
// (batchable instructions never reach the fabric), so executing class
// members out of worklist order cannot change any core's state.

// maxBatchClasses bounds the per-shard class table; cores whose shape
// does not fit an existing class when the table is full fall back to
// scalar stepping for the cycle (correct either way).
const maxBatchClasses = 8

// classKey identifies one equivalence class of per-cycle work: the
// decoded operation and the identical remaining element count.
type classKey struct {
	kind MemOpKind
	rem  int
	dot  bool
}

// batchClass is one equivalence class: the key plus the lane block of
// member cores gathered this cycle.
type batchClass struct {
	key   classKey
	cores []*Core
}

// batchState is the per-shard scratch of the batched engine, reused
// across cycles so stepping allocates nothing in steady state.
type batchState struct {
	classes []batchClass
	n       int
}

// class returns the class for k, creating it if the table has room;
// nil means "table full, step scalar".
func (bs *batchState) class(k classKey) *batchClass {
	for i := 0; i < bs.n; i++ {
		if bs.classes[i].key == k {
			return &bs.classes[i]
		}
	}
	if bs.n == maxBatchClasses {
		return nil
	}
	if bs.n == len(bs.classes) {
		bs.classes = append(bs.classes, batchClass{})
	}
	cl := &bs.classes[bs.n]
	bs.n++
	cl.key = k
	cl.cores = cl.cores[:0]
	return cl
}

// stepShardBatched is the batched counterpart of stepShard: classify
// every runnable core, step the divergent ones scalar in worklist
// order, execute each class, then compact the worklist exactly as the
// scalar engine does.
func (m *Machine) stepShardBatched(s int) {
	bs := &m.batch[s]
	bs.n = 0
	list := m.runnable[s]
	for _, c := range list {
		if key, ok := m.classify(c); ok {
			if cl := bs.class(key); cl != nil {
				cl.cores = append(cl.cores, c)
				continue
			}
		}
		c.step()
	}
	for i := 0; i < bs.n; i++ {
		m.execClass(&bs.classes[i])
	}
	w := 0
	for i := 0; i < len(list); i++ {
		c := list[i]
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

// classify decides whether c's whole cycle is expressible as one
// batchable operation, and performs the scalar step's cheap prefix
// (send-gate reset, task pick) along the way — every mutation here is
// exactly what step() would do first and is idempotent under a scalar
// fallback, so a "false" return loses nothing.
func (m *Machine) classify(c *Core) (classKey, bool) {
	var k classKey
	// Pending rx words mean deliveries (or full-subscriber stalls) that
	// only the scalar path models; the core's pending mask is zero
	// throughout steady-state compute phases.
	if !c.RxQuiet() {
		return k, false
	}
	if c.nthreads > 0 {
		return k, false
	}
	c.sentThisCycle = false
	if c.current == nil {
		t := c.pick()
		if t == nil {
			return k, false
		}
		c.current = t
		t.running = true
		t.activated = false
		t.pc = 0
	}
	t := c.current
	if t.pc >= len(t.Instrs) {
		return k, false
	}
	switch op := t.Instrs[t.pc].(type) {
	case *MemOp:
		rem := op.Dst.Len() - op.Dst.Advanced()
		if rem <= 0 || !op.Dst.Contig() || !op.A.Contig() || op.A.Len()-op.A.Advanced() != rem {
			return k, false
		}
		if op.Kind.readsB() && (!op.B.Contig() || op.B.Len()-op.B.Advanced() != rem) {
			return k, false
		}
		return classKey{kind: op.Kind, rem: rem}, true
	case *DotMixed:
		if m.Cfg.SIMDWidth < 2 {
			// The scalar datapath cannot issue a 2-lane FMAC at all at
			// SIMDWidth 1; preserve its (wedging) behavior.
			return k, false
		}
		rem := op.A.Len() - op.A.Advanced()
		if rem <= 0 || !op.A.Contig() || !op.B.Contig() || op.B.Len()-op.B.Advanced() != rem {
			return k, false
		}
		return classKey{rem: rem, dot: true}, true
	}
	return k, false
}

// execClass runs one cycle of every core in the class: the per-cycle
// element count is decided once from the key, and each member runs that
// many elements through the slice step of its own instruction (classify
// established the operands are contiguous) — the same code, counters and
// retirement as the scalar interpreter.
func (m *Machine) execClass(cl *batchClass) {
	n, per := m.Cfg.SIMDWidth, 1 // elements this cycle, lanes per element
	if cl.key.dot {
		n, per = n/2, 2
	}
	n = min(n, cl.key.rem)
	for _, c := range cl.cores {
		switch op := c.current.Instrs[c.current.pc].(type) {
		case *MemOp:
			op.stepContig(n)
		case *DotMixed:
			op.stepContig(n)
		}
		c.sliceSteps++
		c.busyCycles++
		c.lanesUsed += int64(per * n)
		if n == cl.key.rem {
			m.retireCurrent(c)
		}
	}
}

// retireCurrent applies the scalar step's retire phase to a core whose
// current instruction just completed: advance past done instructions,
// and finish the task (running flag, OnComplete) when the body is
// exhausted.
func (m *Machine) retireCurrent(c *Core) {
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
