package fabric

import (
	"math/rand"
	"testing"
)

// FuzzRouterDelivery fuzzes the engine-equivalence contract over
// randomized route configurations: a set of single-target flows (each
// on its own color, from a random source straight to the fabric edge,
// delivered to the edge tile's core) driven with random injection, on a
// Sequential fabric and a force-parallel Sharded one in lockstep. Every
// cycle both fabrics must agree on Send admission, delivered words, and
// the complete architectural-state fingerprint. The seed corpus lives
// in testdata/fuzz/FuzzRouterDelivery; CI runs this target in the
// fuzz-smoke job.
func FuzzRouterDelivery(f *testing.F) {
	f.Add(int64(1), uint64(0x0808), uint64(24))
	f.Add(int64(42), uint64(0x0c05), uint64(64))
	f.Add(int64(-7), uint64(0x0310), uint64(40))
	f.Add(int64(1<<40), uint64(0x0202), uint64(8))
	f.Fuzz(func(t *testing.T, seed int64, dims, cycles uint64) {
		w := int(dims&0xff)%12 + 2
		h := int((dims>>8)&0xff)%12 + 2
		nCycles := int(cycles%96) + 8
		rng := rand.New(rand.NewSource(seed))

		type flow struct {
			src, dst Coord
			c        Color
		}
		nFlows := rng.Intn(6) + 2
		flows := make([]flow, 0, nFlows)
		build := func(fb *Fabric) {
			// Same rng stream rebuilt per fabric so both get identical
			// routes; flows recorded only on the first pass.
			r := rand.New(rand.NewSource(seed + 1))
			record := len(flows) == 0
			for i := 0; i < nFlows; i++ {
				dir := []Port{North, East, South, West}[r.Intn(4)]
				src := Coord{X: r.Intn(w), Y: r.Intn(h)}
				// Run the flow from src straight to the fabric edge.
				var hops int
				switch dir {
				case East:
					hops = w - 1 - src.X
				case West:
					hops = src.X
				case South:
					hops = h - 1 - src.Y
				case North:
					hops = src.Y
				}
				if hops == 0 {
					// Already on the edge: deliver straight to own core.
					fb.SetRoute(src, Ramp, Color(i), Mask(Ramp))
					if record {
						flows = append(flows, flow{src: src, dst: src, c: Color(i)})
					}
					continue
				}
				BuildPath(fb, src, dir, hops, Color(i))
				dx, dy := dir.Delta()
				dst := Coord{X: src.X + hops*dx, Y: src.Y + hops*dy}
				if record {
					flows = append(flows, flow{src: src, dst: dst, c: Color(i)})
				}
			}
		}

		seq := New(Config{W: w, H: h})
		build(seq)
		par := New(Config{W: w, H: h, Stepper: Sharded(rng.Intn(6) + 2)})
		ForceParallel(par)
		defer par.Close()
		build(par)

		for cyc := 0; cyc < nCycles; cyc++ {
			for _, fl := range flows {
				if rng.Intn(2) == 0 {
					wd := Word{Color: fl.c, Bits: rng.Uint32()}
					a := seq.Send(fl.src, wd)
					b := par.Send(fl.src, wd)
					if a != b {
						t.Fatalf("cycle %d: Send admission diverges on flow %v: seq %v sharded %v", cyc, fl, a, b)
					}
				}
			}
			seq.Step()
			par.Step()
			for _, fl := range flows {
				wa, oka := seq.Recv(fl.dst, fl.c)
				wb, okb := par.Recv(fl.dst, fl.c)
				if oka != okb || wa != wb {
					t.Fatalf("cycle %d: delivery diverges on flow %v: seq (%v,%v) sharded (%v,%v)",
						cyc, fl, wa, oka, wb, okb)
				}
			}
			if fa, fb := seq.Fingerprint(), par.Fingerprint(); fa != fb {
				t.Fatalf("cycle %d: state fingerprints diverge: seq %#x sharded %#x", cyc, fa, fb)
			}
		}
	})
}
