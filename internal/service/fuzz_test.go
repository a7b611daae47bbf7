package service

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzJobSpec feeds arbitrary bytes through the submit handler's strict
// decoder and JobSpec.Options, the checks a POST /v1/jobs body passes
// before the daemon queues it. Neither may panic, and every spec they
// accept must stay within the bounds that keep a job from exhausting
// the host before it starts: workers in [0, core.MaxWorkers] and a mesh
// of at most maxMeshCells cells. Seed corpus in
// testdata/fuzz/FuzzJobSpec; CI runs this in fuzz-smoke.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		spec = spec.withDefaults()
		o, err := spec.Options()
		if err != nil {
			return
		}
		if spec.Workers < 0 || spec.Workers > core.MaxWorkers {
			t.Fatalf("accepted workers %d, outside [0, %d]", spec.Workers, core.MaxWorkers)
		}
		if w := max(o.Wafer.Workers, o.MultiWafer.Workers); w > core.MaxWorkers {
			t.Fatalf("options carry workers %d, over %d", w, core.MaxWorkers)
		}
		// Each factor is at most the cap, so the products cannot wrap.
		if spec.NX <= 0 || spec.NY <= 0 || spec.NZ <= 0 ||
			spec.NX > maxMeshCells || spec.NY > maxMeshCells || spec.NZ > maxMeshCells ||
			spec.NX*spec.NY > maxMeshCells || spec.NX*spec.NY*spec.NZ > maxMeshCells {
			t.Fatalf("accepted a %dx%dx%d mesh; the cap is %d cells", spec.NX, spec.NY, spec.NZ, maxMeshCells)
		}
	})
}
