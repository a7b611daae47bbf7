package kernels

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// machineAt is the machine's architectural state at one point of a
// solve: its fingerprint and its cycle count.
type machineAt struct {
	fp    uint64
	cycle int64
}

// TestSolveMachineStatePins holds three small solves to constants: the
// machine fingerprint and cycle at every Progress callback and at the
// end, and an FNV-1a hash of the solution's fp16 bits. The star solves
// (the 7-point spec over the 3-D heat operator, on an odd and an even
// fabric height) and the Listing 1 solve (NewBiCGStabWSE) each run under
// the sequential and the fast-forward engine, which must both land on
// the same constants: every dot and vector update of the solve is
// between the callbacks, so a phase that drifts by a cycle, a busy
// count or a program counter shows up at the first callback after it.
func TestSolveMachineStatePins(t *testing.T) {
	heat := func(nx, ny, nz int) (stencil.Mesh, []fp16.Float16) {
		mesh := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
		b := make([]fp16.Float16, mesh.N())
		for i := range b {
			b[i] = fp16.FromFloat64(float64((i%23)-11) / 28)
		}
		return mesh, b
	}
	star := func(nx, ny int) func(wse.Engine) (*wse.Machine, wseSolver, []fp16.Float16, error) {
		return func(eng wse.Engine) (*wse.Machine, wseSolver, []fp16.Float16, error) {
			mesh, b := heat(nx, ny, 4)
			norm, _ := stencil.Heat3D(mesh, 0.1, stencil.Dirichlet).Normalize()
			m := wse.New(wse.Config{FabricW: nx, FabricH: ny, Engine: eng})
			s, err := NewBiCGStabStarWSE(m, stencilc.Spec7Point(), stencil.NewOpStarHalf(norm))
			return m, s, b, err
		}
	}
	listing1 := func(eng wse.Engine) (*wse.Machine, wseSolver, []fp16.Float16, error) {
		mesh := stencil.Mesh{NX: 4, NY: 4, NZ: 8}
		norm, _ := stencil.MomentumLike(mesh, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1.0, 0.05).Normalize()
		m := wse.New(wse.Config{FabricW: mesh.NX, FabricH: mesh.NY, Engine: eng})
		s, err := NewBiCGStabWSE(m, stencil.NewOp7Half(norm))
		return m, s, testRHS(mesh, 13), err
	}
	cases := []struct {
		name  string
		build func(wse.Engine) (*wse.Machine, wseSolver, []fp16.Float16, error)
		// at holds the state at each Progress callback, then at the end.
		at []machineAt
		x  uint64
	}{
		{"star7x5x4", star(7, 5), []machineAt{{0xcbb8cf7c3b7c41a9, 118}, {0x8bd0c79193221310, 238}, {0x57fa546c11bcd3a7, 260}}, 0x1f8257faecb687ef},
		{"star8x6x4", star(8, 6), []machineAt{{0xad904a06f371e1b5, 122}, {0x7bb9e76b694e5225, 246}, {0x9b50a8595dadf144, 269}}, 0x6a101df307016adc},
		{"listing1_4x4x8", listing1, []machineAt{{0xb347d8c85974484c, 136}, {0x4d91dd380338e89a, 276}, {0x934a24b3c5a98931, 297}}, 0x5aa05d510649beca},
	}
	for _, tc := range cases {
		for _, eng := range []wse.Engine{wse.EngineSequential, wse.EngineFastForward} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, eng), func(t *testing.T) {
				m, s, b, err := tc.build(eng)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				var at []machineAt
				x, _, err := s.Solve(b, WSEOptions{MaxIter: 2, Tol: 0, Progress: func(int, float64) {
					at = append(at, machineAt{m.Fingerprint(), m.Cycle()})
				}})
				if err != nil {
					t.Fatal(err)
				}
				at = append(at, machineAt{m.Fingerprint(), m.Cycle()})
				h := fnv.New64a()
				for _, v := range x {
					h.Write([]byte{byte(v.Bits()), byte(v.Bits() >> 8)})
				}
				if fmt.Sprint(at) != fmt.Sprint(tc.at) || h.Sum64() != tc.x {
					t.Errorf("machine states %#x, solution hash %#x; want %#x, %#x", at, h.Sum64(), tc.at, tc.x)
				}
			})
		}
	}
}
