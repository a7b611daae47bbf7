package wse

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

func TestConfigDefaults(t *testing.T) {
	m := New(Config{FabricW: 2, FabricH: 2})
	if m.Cfg.ClockHz != 1.1e9 || m.Cfg.MemPerTile != 48*1024 || m.Cfg.SIMDWidth != 4 {
		t.Errorf("defaults not applied: %+v", m.Cfg)
	}
}

func TestTaskSchedulingStates(t *testing.T) {
	m := New(CS1(1, 1))
	c := m.Tiles[0].Core
	var order []string

	low := c.AddTask(&Task{Name: "low"})
	low.OnComplete = func(cc *Core) { order = append(order, "low") }
	hi := c.AddTask(&Task{Name: "hi", Priority: true})
	hi.OnComplete = func(cc *Core) { order = append(order, "hi") }
	blocked := c.AddTask(&Task{Name: "blocked"})
	blocked.OnComplete = func(cc *Core) { order = append(order, "blocked") }

	c.Activate(low)
	c.Activate(hi)
	c.Activate(blocked)
	c.Block(blocked)

	for i := 0; i < 5; i++ {
		m.Step()
	}
	if len(order) != 2 || order[0] != "hi" || order[1] != "low" {
		t.Fatalf("scheduling order = %v, want [hi low]", order)
	}
	// Unblocking releases the pending activation.
	c.Unblock(blocked)
	for i := 0; i < 3; i++ {
		m.Step()
	}
	if len(order) != 3 || order[2] != "blocked" {
		t.Fatalf("blocked task did not run after unblock: %v", order)
	}
}

func TestMemOpKinds(t *testing.T) {
	m := New(CS1(1, 1))
	tl := m.Tiles[0]
	a := tl.Arena
	n := 8
	xb := a.MustAlloc("x", n)
	yb := a.MustAlloc("y", n)
	db := a.MustAlloc("d", n)
	for i := 0; i < n; i++ {
		a.Set(xb+i, fp16.FromFloat64(float64(i+1)))
		a.Set(yb+i, fp16.FromFloat64(2))
	}
	runOp := func(op *MemOp) {
		task := &Task{Name: "t", Instrs: []Instr{op}}
		done := false
		task.OnComplete = func(c *Core) { done = true }
		tl.Core.AddTask(task)
		tl.Core.Activate(task)
		if _, err := m.RunUntil(func() bool { return done }, 1000); err != nil {
			t.Fatal(err)
		}
	}
	runOp(&MemOp{Kind: OpFMA, Arena: a, S: fp16.FromFloat64(3),
		Dst: tensor.Vec1D(db, n), A: tensor.Vec1D(xb, n), B: tensor.Vec1D(yb, n)})
	for i := 0; i < n; i++ {
		if got, want := a.At(db+i).Float64(), 3*float64(i+1)+2; got != want {
			t.Fatalf("OpFMA[%d] = %g, want %g", i, got, want)
		}
	}
	runOp(&MemOp{Kind: OpXPAY, Arena: a, S: fp16.FromFloat64(0.5),
		Dst: tensor.Vec1D(db, n), A: tensor.Vec1D(xb, n)})
	for i := 0; i < n; i++ {
		want := float64(i+1) + 0.5*(3*float64(i+1)+2)
		if got := a.At(db + i).Float64(); got != want {
			t.Fatalf("OpXPAY[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestDotMixedInstr(t *testing.T) {
	m := New(CS1(1, 1))
	tl := m.Tiles[0]
	a := tl.Arena
	n := 64
	xb := a.MustAlloc("x", n)
	for i := 0; i < n; i++ {
		a.Set(xb+i, fp16.FromFloat64(0.25))
	}
	var out float32
	d := &DotMixed{A: tensor.Vec1D(xb, n), B: tensor.Vec1D(xb, n), Arena: a, Out: &out}
	task := &Task{Name: "dot", Instrs: []Instr{d}}
	done := false
	task.OnComplete = func(c *Core) { done = true }
	tl.Core.AddTask(task)
	tl.Core.Activate(task)
	cycles, err := m.RunUntil(func() bool { return done }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if out != 4 { // 64 * 0.0625
		t.Errorf("dot = %g, want 4", out)
	}
	// Two FMACs per cycle: 64 elements should take ~32 cycles + task start.
	if cycles < 32 || cycles > 40 {
		t.Errorf("dot took %d cycles, expected ~32 (2 FMAC/cycle)", cycles)
	}
}

func TestDatapathSharing(t *testing.T) {
	// Two concurrent threads each running a 64-element SIMD op share the
	// 4-lane datapath: together they need ~2× the cycles of one.
	m := New(CS1(1, 1))
	tl := m.Tiles[0]
	a := tl.Arena
	n := 64
	xb := a.MustAlloc("x", n)
	d1 := a.MustAlloc("d1", n)
	d2 := a.MustAlloc("d2", n)
	for i := 0; i < n; i++ {
		a.Set(xb+i, fp16.One)
	}
	mk := func(dst int) *MemOp {
		return &MemOp{Kind: OpCopy, Arena: a, Dst: tensor.Vec1D(dst, n), A: tensor.Vec1D(xb, n)}
	}
	single := func() int64 {
		mm := New(CS1(1, 1))
		aa := mm.Tiles[0].Arena
		x := aa.MustAlloc("x", n)
		d := aa.MustAlloc("d", n)
		op := &MemOp{Kind: OpCopy, Arena: aa, Dst: tensor.Vec1D(d, n), A: tensor.Vec1D(x, n)}
		mm.Tiles[0].Core.LaunchThread(0, "t", op, nil)
		c, err := mm.RunUntil(op.Done, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}()
	op1, op2 := mk(d1), mk(d2)
	tl.Core.LaunchThread(0, "t1", op1, nil)
	tl.Core.LaunchThread(1, "t2", op2, nil)
	both, err := m.RunUntil(func() bool { return op1.Done() && op2.Done() }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if both < 2*single-4 || both > 2*single+8 {
		t.Errorf("two threads took %d cycles, one takes %d: expected ~2×", both, single)
	}
}

// TestPickSemantics pins the scheduler selection rule the worklist
// engine must preserve: priority tasks first (first-registered priority
// wins), then registration order; blocked or deactivated tasks are
// never picked.
func TestPickSemantics(t *testing.T) {
	type taskSpec struct {
		name               string
		priority           bool
		activated, blocked bool
	}
	cases := []struct {
		name  string
		tasks []taskSpec
		want  string // "" = nil pick
	}{
		{"no tasks", nil, ""},
		{"single activated", []taskSpec{{"a", false, true, false}}, "a"},
		{"registration order", []taskSpec{{"a", false, true, false}, {"b", false, true, false}}, "a"},
		{"priority beats earlier normal", []taskSpec{{"a", false, true, false}, {"p", true, true, false}}, "p"},
		{"first priority wins", []taskSpec{{"p1", true, true, false}, {"p2", true, true, false}}, "p1"},
		{"blocked priority falls back", []taskSpec{{"a", false, true, false}, {"p", true, true, true}}, "a"},
		{"deactivated priority ignored", []taskSpec{{"a", false, true, false}, {"p", true, false, false}}, "a"},
		{"all blocked", []taskSpec{{"a", false, true, true}, {"b", false, true, true}}, ""},
		{"none activated", []taskSpec{{"a", false, false, false}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(CS1(1, 1))
			defer m.Close()
			c := m.Tiles[0].Core
			for _, ts := range tc.tasks {
				task := c.AddTask(&Task{Name: ts.name, Priority: ts.priority})
				if ts.activated {
					c.Activate(task)
				}
				if ts.blocked {
					c.Block(task)
				}
			}
			got := ""
			if p := c.pick(); p != nil {
				got = p.Name
			}
			if got != tc.want {
				t.Errorf("pick = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestLaunchThreadSlotBounds pins the panic contract on out-of-range
// slots, and that both boundary slots are usable.
func TestLaunchThreadSlotBounds(t *testing.T) {
	mk := func(m *Machine) *MemOp {
		a := m.Tiles[0].Arena
		base := a.MustAlloc("x", 4)
		return &MemOp{Kind: OpCopy, Arena: a, Dst: tensor.Vec1D(base, 4), A: tensor.Vec1D(base, 4)}
	}
	for _, slot := range []int{-1, MaxThreads, MaxThreads + 5} {
		t.Run(fmt.Sprintf("slot%d", slot), func(t *testing.T) {
			m := New(CS1(1, 1))
			defer m.Close()
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for slot %d", slot)
				}
			}()
			m.Tiles[0].Core.LaunchThread(slot, "bad", mk(m), nil)
		})
	}
	m := New(CS1(1, 1))
	defer m.Close()
	m.Tiles[0].Core.LaunchThread(0, "lo", mk(m), nil)
	m.Tiles[0].Core.LaunchThread(MaxThreads-1, "hi", mk(m), nil)
	if m.Tiles[0].Core.nthreads != 2 {
		t.Errorf("nthreads = %d, want 2", m.Tiles[0].Core.nthreads)
	}
}

// spinForever never completes: it pins a core on the worklist.
type spinForever struct{}

func (spinForever) Step(c *Core, lanes int) int {
	if lanes > 0 {
		return 1
	}
	return 0
}
func (spinForever) Done() bool { return false }

// TestRunUntilWedgeDetection exercises both RunUntil failure modes
// under both engines: a machine with no runnable work and a done() that
// never fires wedges after the idle window; a machine kept busy by a
// never-finishing thread runs to the cycle budget instead.
func TestRunUntilWedgeDetection(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			cfg := CS1(4, 4)
			cfg.Workers = workers
			m := New(cfg)
			defer m.Close()
			_, err := m.RunUntil(func() bool { return false }, 1<<20)
			if err == nil || !strings.Contains(err.Error(), "wedged") {
				t.Errorf("idle machine: want wedge error, got %v", err)
			}

			m2 := New(cfg)
			defer m2.Close()
			m2.Tiles[0].Core.LaunchThread(0, "spin", spinForever{}, nil)
			cyc, err := m2.RunUntil(func() bool { return false }, 50)
			if err == nil || !strings.Contains(err.Error(), "exceeded") {
				t.Errorf("busy machine: want exceeded error, got %v", err)
			}
			if cyc < 50 {
				t.Errorf("busy machine stopped after %d cycles, want 50", cyc)
			}

			// A stuck stream — rx words whose subscriber is full and has
			// no consumer — must park the core and wedge fast, not spin
			// to the cycle budget as "exceeded".
			m3 := New(cfg)
			defer m3.Close()
			src, dst := m3.Tiles[0], m3.Tiles[1]
			m3.Fab.SetRoute(src.Coord, fabric.Ramp, 2, fabric.Mask(fabric.East))
			m3.Fab.SetRoute(dst.Coord, fabric.West, 2, fabric.Mask(fabric.Ramp))
			dst.Core.Subscribe(2, &NewStreamBufs(1, 1)[0]) // one word of space, never drained
			n := 8
			base := src.Arena.MustAlloc("v", n)
			src.Core.LaunchThread(0, "tx", &SendMem{Color: 2, Src: tensor.Vec1D(base, n), Arena: src.Arena, Total: n}, nil)
			_, err = m3.RunUntil(func() bool { return false }, 1<<20)
			if err == nil || !strings.Contains(err.Error(), "wedged") {
				t.Errorf("stuck stream: want wedge error, got %v", err)
			}
		})
	}
}

// TestAllIdleBothEngines drives a machine through idle → busy → idle
// and checks AllIdle tracks it identically under both engines, with
// matching state fingerprints throughout.
func TestAllIdleBothEngines(t *testing.T) {
	run := func(workers int) (trace []bool, fp uint64) {
		cfg := CS1(3, 3)
		cfg.Workers = workers
		m := New(cfg)
		defer m.Close()
		trace = append(trace, m.AllIdle())
		tl := m.Tiles[4]
		base := tl.Arena.MustAlloc("x", 8)
		op := &MemOp{Kind: OpCopy, Arena: tl.Arena, Dst: tensor.Vec1D(base, 8), A: tensor.Vec1D(base, 8)}
		task := tl.Core.AddTask(&Task{Name: "t", Instrs: []Instr{op}})
		tl.Core.Activate(task)
		trace = append(trace, m.AllIdle())
		for i := 0; i < 20; i++ {
			m.Step()
		}
		trace = append(trace, m.AllIdle())
		return trace, m.Fingerprint()
	}
	seqTrace, seqFP := run(1)
	parTrace, parFP := run(4)
	want := []bool{true, false, true}
	for i := range want {
		if seqTrace[i] != want[i] || parTrace[i] != want[i] {
			t.Fatalf("AllIdle trace seq %v par %v, want %v", seqTrace, parTrace, want)
		}
	}
	if seqFP != parFP {
		t.Errorf("fingerprints diverge: seq %#x par %#x", seqFP, parFP)
	}
}

// TestRxDeliveryWakesParkedCore pins the fabric→core wake edge: a core
// whose only job is a stream subscription parks once quiescent, is
// re-listed when a word lands at its ramp, delivers it to the buffer,
// and parks again when its rx drains.
func TestRxDeliveryWakesParkedCore(t *testing.T) {
	m := New(CS1(2, 1))
	defer m.Close()
	src, dst := m.Tiles[0], m.Tiles[1]
	m.Fab.SetRoute(src.Coord, fabric.Ramp, 5, fabric.Mask(fabric.East))
	m.Fab.SetRoute(dst.Coord, fabric.West, 5, fabric.Mask(fabric.Ramp))
	buf := &NewStreamBufs(1, 8)[0]
	dst.Core.Subscribe(5, buf)

	// Drain the Subscribe wake: with no words anywhere the core parks.
	for i := 0; i < 3; i++ {
		m.Step()
	}
	if dst.Core.queued {
		t.Fatal("subscribed-but-wordless core did not park")
	}

	n := 4
	base := src.Arena.MustAlloc("v", n)
	for i := 0; i < n; i++ {
		src.Arena.Set(base+i, fp16.FromFloat64(float64(i+1)))
	}
	src.Core.LaunchThread(0, "tx", &SendMem{Color: 5, Src: tensor.Vec1D(base, n), Arena: src.Arena, Total: n}, nil)
	for i := 0; i < 20; i++ {
		m.Step()
	}
	if buf.Len() != n {
		t.Fatalf("parked core missed deliveries: buffered %d elements, want %d", buf.Len(), n)
	}
	if dst.Core.queued {
		t.Error("core did not re-park after draining its rx")
	}
	if !m.AllIdle() {
		t.Error("machine not AllIdle after the stream drained")
	}
}

func TestThreadSlotConflictPanics(t *testing.T) {
	m := New(CS1(1, 1))
	c := m.Tiles[0].Core
	a := m.Tiles[0].Arena
	base := a.MustAlloc("x", 4)
	mk := func() *MemOp {
		return &MemOp{Kind: OpCopy, Arena: a, Dst: tensor.Vec1D(base, 4), A: tensor.Vec1D(base, 4)}
	}
	c.LaunchThread(3, "a", mk(), nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on occupied thread slot")
		}
	}()
	c.LaunchThread(3, "b", mk(), nil)
}

func TestSendMemAcrossFabric(t *testing.T) {
	// One tile streams a vector to its neighbour via SendMem; a StreamBuf
	// subscriber collects it: the building block of the SpMV broadcast.
	m := New(CS1(2, 1))
	src, dst := m.Tiles[0], m.Tiles[1]
	n := 16
	base := src.Arena.MustAlloc("v", n)
	for i := 0; i < n; i++ {
		src.Arena.Set(base+i, fp16.FromFloat64(float64(i)))
	}
	m.Fab.SetRoute(src.Coord, 4, 7, 1<<1) // Ramp in, East out, color 7
	m.Fab.SetRoute(dst.Coord, 3, 7, 1<<4) // arrives West, to Ramp
	buf := &NewStreamBufs(1, 8)[0]
	dst.Core.Subscribe(7, buf)

	send := &SendMem{Color: 7, Src: tensor.Vec1D(base, n), Arena: src.Arena, Total: n}
	src.Core.LaunchThread(0, "tx", send, nil)

	acc := dst.Arena.MustAlloc("acc", n)
	add := &StreamAdd{Src: StreamSource{B: buf}, Acc: tensor.Vec1D(acc, n), Arena: dst.Arena, Total: n}
	dst.Core.LaunchThread(0, "rx", add, nil)

	if _, err := m.RunUntil(func() bool { return send.Done() && add.Done() }, 10000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := dst.Arena.At(acc + i).Float64(); got != float64(i) {
			t.Fatalf("received[%d] = %g, want %d", i, got, i)
		}
	}
}

func TestUtilizationTracking(t *testing.T) {
	m := New(CS1(1, 1))
	c := m.Tiles[0].Core
	a := m.Tiles[0].Arena
	base := a.MustAlloc("x", 32)
	op := &MemOp{Kind: OpCopy, Arena: a, Dst: tensor.Vec1D(base, 32), A: tensor.Vec1D(base, 32)}
	c.LaunchThread(0, "t", op, nil)
	if _, err := m.RunUntil(op.Done, 100); err != nil {
		t.Fatal(err)
	}
	busy, lanes := c.Utilization()
	if busy <= 0 || busy > 1 || lanes <= 0 || lanes > 4 {
		t.Errorf("utilization out of range: busy %g lanes %g", busy, lanes)
	}
}

// Utilization returns the fraction of cycles with any datapath issue
// and the mean lanes used per cycle, over the machine's stepped
// lifetime. The denominator is the count of Machine.Step calls — not
// the fabric cycle counter, which host kernels that drive the fabric
// directly advance without giving cores a cycle.
func (c *Core) Utilization() (busyFrac, lanesPerCycle float64) {
	cycles := c.m.steps
	if cycles == 0 {
		return 0, 0
	}
	return float64(c.busyCycles) / float64(cycles),
		float64(c.lanesUsed) / float64(cycles)
}
