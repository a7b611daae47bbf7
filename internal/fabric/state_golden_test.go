package fabric_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// This file pins the fabric's architectural state, bit for bit, on three
// programs: Listing 1's SpMV3D on 6×5×8; a Spec7Point exchange followed
// by the Figure 6 AllReduce on an odd 7×5 fabric; and multicast trees
// (plus one router of more than 64 entries) driven with random traffic.
// At fixed cycles it records Fingerprint, a hash of the CaptureState
// encoded field by field, and a hash of every tile's EntryLayout. The
// constants were recorded from the fabric as it stood before its
// per-tile tables became slabs; a storage change that leaves the
// simulation alone passes unedited.

// stateDigest is what a golden row holds at one cycle.
type stateDigest struct {
	Cycle              int64
	FP, State, Layouts uint64
}

func (d stateDigest) String() string {
	return fmt.Sprintf("{%d, %#x, %#x, %#x}", d.Cycle, d.FP, d.State, d.Layouts)
}

// digest records f's state: Fingerprint, the FNV-1a of CaptureState
// encoded little-endian in field order, and the FNV-1a of every tile's
// EntryLayout in tile order.
func digest(f *fabric.Fabric) stateDigest {
	s := f.CaptureState()
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u64(uint64(s.W))
	u64(uint64(s.H))
	u64(uint64(s.Cycle))
	u64(uint64(s.Moves))
	u64(uint64(len(s.RR)))
	for _, r := range s.RR {
		u64(uint64(r))
	}
	u64(uint64(len(s.Queues)))
	for _, q := range s.Queues {
		u64(uint64(q.Tile))
		b = append(b, q.In, q.Color)
		u64(uint64(len(q.Words)))
		for _, w := range q.Words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
	}
	u64(uint64(len(s.Hot)))
	for _, t := range s.Hot {
		u64(uint64(t))
	}
	hs := fnv.New64a()
	hs.Write(b)

	hl := fnv.New64a()
	var keys []fabric.RouteKey
	for ti := 0; ti < f.W*f.H; ti++ {
		keys = f.EntryLayout(keys[:0], ti)
		hl.Write([]byte{byte(ti), byte(ti >> 8), byte(len(keys))})
		for _, k := range keys {
			hl.Write([]byte{byte(k.In), byte(k.C)})
		}
	}
	return stateDigest{f.Cycle(), f.Fingerprint(), hs.Sum64(), hl.Sum64()}
}

// checkGolden compares the recorded rows with want, printing every row
// on a mismatch so a deliberate re-pin is one paste.
func checkGolden(t *testing.T, got, want []stateDigest) {
	t.Helper()
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	if !same {
		t.Errorf("fabric state diverges from the golden:\n got %v\nwant %v", got, want)
	}
}

// halfVector is a deterministic fp16 vector in (-1, 1).
func halfVector(n int, seed int64) []fp16.Float16 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]fp16.Float16, n)
	for i := range v {
		v[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	return v
}

// TestFabricStateGoldenListing1 steps one Listing 1 application on a
// 6×5×8 mesh: every tile multicasts its iterate to its neighbours and
// its own ramp, so each ramp input fans out to up to five ports.
func TestFabricStateGoldenListing1(t *testing.T) {
	mesh := stencil.Mesh{NX: 6, NY: 5, NZ: 8}
	norm, _ := stencil.RandomDiagDominant(mesh, 1.5, rand.New(rand.NewSource(5))).Normalize()
	cfg := wse.CS1(mesh.NX, mesh.NY)
	cfg.Engine = wse.EngineSequential
	m := wse.New(cfg)
	defer m.Close()
	p, err := kernels.NewSpMV3D(m, stencil.NewOp7Half(norm))
	if err != nil {
		t.Fatal(err)
	}
	p.LoadVector(halfVector(mesh.N(), 6))
	got := []stateDigest{digest(m.Fab)}
	// Run arms the application; stopping it at a cycle budget leaves the
	// machine mid-flight, to be stepped on from there.
	if _, err := p.Run(7); err == nil {
		t.Fatal("the application finished within 7 cycles; the golden would pin nothing in flight")
	}
	got = append(got, digest(m.Fab))
	for _, at := range []int64{19, 42, 80, 160} {
		for m.Cycle() < at {
			m.Step()
		}
		got = append(got, digest(m.Fab))
	}
	checkGolden(t, got, []stateDigest{
		{0, 0xd80ac658736bb725, 0x7f405cf0179a7ed8, 0xd888607d7249192d},
		{7, 0x68272cf0ee6fbee6, 0x5547eebca1bc6d94, 0xd888607d7249192d},
		{19, 0x67865803d637d6e5, 0x6425257db86860f0, 0xd888607d7249192d},
		{42, 0xc9b6f18030e23a85, 0xf2c98ddba66569fc, 0xd888607d7249192d},
		{80, 0xdf6c9aa58347ff, 0xb2334688ae8f4a7e, 0xd888607d7249192d},
		{160, 0x99e895b004ad7c0f, 0xbee398857186292e, 0xd888607d7249192d},
	})
}

// TestFabricStateGoldenExchangeAllReduce steps a Spec7Point application
// and then the Figure 6 AllReduce on the same odd 7×5 fabric, so the
// reduction's routes sit beside the exchange's and its column phase
// contends at the centre ramp.
func TestFabricStateGoldenExchangeAllReduce(t *testing.T) {
	mesh := stencil.Mesh{NX: 7, NY: 5, NZ: 6}
	norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
	cfg := wse.CS1(mesh.NX, mesh.NY)
	cfg.Engine = wse.EngineSequential
	m := wse.New(cfg)
	defer m.Close()
	p, err := stencilc.Compile3D(m, stencilc.Spec7Point(), stencil.NewOpStarHalf(norm), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := kernels.NewAllReduce(m, stencilc.NumExchangeColors)
	if err != nil {
		t.Fatal(err)
	}
	src := halfVector(mesh.N(), 7)
	for i := 0; i < p.Tiles(); i++ {
		gx, gy := p.GlobalCoord(i)
		copy(p.Iterate(i), src[mesh.Index(gx, gy, 0):][:mesh.NZ])
	}
	got := []stateDigest{digest(m.Fab)}
	p.Arm()
	for _, at := range []int64{3, 9, 17} {
		for m.Cycle() < at && !p.Done() {
			m.Step()
		}
		got = append(got, digest(m.Fab))
	}
	for !p.Done() {
		if m.Cycle() > 1<<12 {
			t.Fatal("the exchange did not finish")
		}
		m.Step()
	}
	got = append(got, digest(m.Fab))

	values := make([]float32, mesh.NX*mesh.NY)
	for i := range values {
		values[i] = float32(i%11)*0.375 - 1.5
	}
	if err := ar.Begin(values); err != nil {
		t.Fatal(err)
	}
	start := m.Cycle()
	for _, at := range []int64{2, 5, 8, 11, 14} {
		for m.Cycle()-start < at && !ar.Tick() {
			m.Step()
		}
		got = append(got, digest(m.Fab))
	}
	for !ar.Tick() {
		if m.Cycle()-start > 1<<12 {
			t.Fatal("the AllReduce did not finish")
		}
		m.Step()
	}
	got = append(got, digest(m.Fab))
	checkGolden(t, got, []stateDigest{
		{0, 0x5350442c19447045, 0xd0d48c87126d5324, 0x1b51201bec2e8574},
		{3, 0x473fe35b15e72daf, 0x4262f96e690f7081, 0x1b51201bec2e8574},
		{9, 0xaa198fc056e01be6, 0x44ae3cb57820de0, 0x1b51201bec2e8574},
		{17, 0xb83be7916db1648f, 0x667cae6fdc169796, 0x1b51201bec2e8574},
		{28, 0x66658e6d63bbb266, 0x9d2031fe5c706177, 0x1b51201bec2e8574},
		{30, 0x217b8afeb840d38e, 0xfe127d441b28e7f8, 0x1b51201bec2e8574},
		{33, 0x2e9b8797490523dc, 0xc5d587ccaeaf7945, 0x1b51201bec2e8574},
		{36, 0xb0219ffa5a151c09, 0xa128bed6295b9d16, 0x1b51201bec2e8574},
		{39, 0x2d1b72b867c98547, 0x1ceeab1d1bb5b676, 0x1b51201bec2e8574},
		{42, 0x79c584b3a68c78bf, 0x787428a4ef516ed2, 0x1b51201bec2e8574},
		{46, 0x9c74852a66bb8ccb, 0x9692ea759263d50a, 0x1b51201bec2e8574},
	})
}

// TestFabricStateGoldenMulticast drives random multicast trees — each
// color grown from a source ramp, going on in one to three directions at
// every tile and sometimes dropping to the core — with random injection
// and random draining over depth-2 queues, the traffic TestClaimLockstep
// drives. One tile also carries more than 64 entries, which the claim
// phase walks without an occupancy mask.
func TestFabricStateGoldenMulticast(t *testing.T) {
	const w, h = 9, 7
	f := fabric.New(fabric.Config{W: w, H: h, QueueDepth: 2, RxDepth: 2})
	r := rand.New(rand.NewSource(17))
	type flow struct {
		src fabric.Coord
		c   fabric.Color
	}
	var flows []flow
	var sinks []fabric.Coord
	var sinkColor []fabric.Color
	for fi := 0; fi < 6; fi++ {
		c := fabric.Color(fi*4 + r.Intn(4))
		src := fabric.Coord{X: r.Intn(w), Y: r.Intn(h)}
		flows = append(flows, flow{src, c})
		seen := map[fabric.Coord]bool{src: true}
		type hop struct {
			at fabric.Coord
			in fabric.Port
		}
		frontier := []hop{{src, fabric.Ramp}}
		for len(frontier) > 0 {
			hp := frontier[0]
			frontier = frontier[1:]
			var outs fabric.PortMask
			for _, p := range r.Perm(4)[:r.Intn(3)+1] {
				dx, dy := fabric.Port(p).Delta()
				nb := fabric.Coord{X: hp.at.X + dx, Y: hp.at.Y + dy}
				if !f.In(nb) || seen[nb] {
					continue
				}
				seen[nb] = true
				outs |= fabric.Mask(fabric.Port(p))
				frontier = append(frontier, hop{nb, fabric.Port(p).Opposite()})
			}
			if outs == 0 || r.Intn(2) == 0 {
				outs |= fabric.Mask(fabric.Ramp)
				sinks = append(sinks, hp.at)
				sinkColor = append(sinkColor, c)
			}
			f.SetRoute(hp.at, hp.in, c, outs)
		}
	}
	// A wide router: loop-back entries on every color the trees leave
	// free, from every port, at one tile.
	wide := fabric.Coord{X: 4, Y: 3}
	used := map[fabric.Color]bool{}
	for _, fl := range flows {
		used[fl.c] = true
	}
	var loop fabric.Color
	for c := fabric.Color(0); c < fabric.MaxColors; c++ {
		if used[c] {
			continue
		}
		loop = c
		for p := fabric.North; p <= fabric.Ramp; p++ {
			f.SetRoute(wide, p, c, fabric.Mask(fabric.Ramp))
		}
	}
	if n := len(f.EntryLayout(nil, f.Index(wide))); n <= 64 {
		t.Fatalf("tile %v has %d entries; the program needs more than 64", wide, n)
	}

	got := []stateDigest{digest(f)}
	for cyc := 1; cyc <= 120; cyc++ {
		for _, fl := range flows {
			if r.Intn(3) > 0 {
				f.Send(fl.src, fabric.Word{Color: fl.c, Bits: r.Uint32()})
			}
		}
		if cyc%5 == 0 {
			f.Send(wide, fabric.Word{Color: loop, Bits: uint32(cyc)})
		}
		f.Step()
		for i, at := range sinks {
			if r.Intn(3) == 0 {
				f.Recv(at, sinkColor[i])
			}
		}
		if cyc%15 == 0 {
			got = append(got, digest(f))
		}
	}
	checkGolden(t, got, []stateDigest{
		{0, 0x7270ce3a3ef261c5, 0xefe077b50ec30bf4, 0x25d6c0e615d992b},
		{15, 0x93d91aa45fe0730d, 0xc4975acbd112c79e, 0x25d6c0e615d992b},
		{30, 0x220398e8342c6d47, 0x4b751cac7c90ac4e, 0x25d6c0e615d992b},
		{45, 0x30ceaa1320c398d0, 0x2afb5094df6a2db7, 0x25d6c0e615d992b},
		{60, 0x67e3cd8acb00fa11, 0x1247c7061e2813b6, 0x25d6c0e615d992b},
		{75, 0xbd6a9119b584f288, 0x65f7760296e2a8f, 0x25d6c0e615d992b},
		{90, 0x8a10a816f3365da9, 0x3e38687025f3c469, 0x25d6c0e615d992b},
		{105, 0x741cde1b2ddcafe6, 0x6b10d6edd278f990, 0x25d6c0e615d992b},
		{120, 0x50fa1901a549eecd, 0x66d9493febfde421, 0x25d6c0e615d992b},
	})
}
