package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/multiwafer"
	"repro/internal/solver"
	"repro/internal/stencil"
)

// TestOptionsValidate pins the one-place validation contract: every
// nonsense combination is rejected with a typed *OptionError naming the
// offending field, before any backend work happens.
func TestOptionsValidate(t *testing.T) {
	noop := func([]byte) error { return nil }
	cases := []struct {
		name  string
		opts  Options
		field string // "" means valid
	}{
		{"zero value", Options{}, ""},
		{"local full", Options{Backend: Local, Local: LocalOptions{Precision: Mixed}, MaxIter: 10, Tol: 1e-3}, ""},
		{"wafer workers", Options{Backend: Wafer, Wafer: WaferOptions{Workers: 4}}, ""},
		{"wafer checkpoint", Options{Backend: Wafer, Wafer: WaferOptions{CheckpointEvery: 5, Checkpoint: noop}}, ""},
		{"multiwafer grid", Options{Backend: MultiWafer, MultiWafer: MultiWaferOptions{Grid: multiwafer.Topology{W: 2, H: 1}}}, ""},

		{"unknown backend", Options{Backend: Backend(42)}, "Backend"},
		{"negative MaxIter", Options{MaxIter: -1}, "MaxIter"},
		{"negative Tol", Options{Tol: -1e-3}, "Tol"},
		{"grid with local", Options{Backend: Local, MultiWafer: MultiWaferOptions{Grid: multiwafer.Topology{W: 2, H: 2}}}, "MultiWafer"},
		{"precision with multiwafer", Options{Backend: MultiWafer, Local: LocalOptions{Precision: Mixed}}, "Local"},
		{"checkpoint with local", Options{Backend: Local, Wafer: WaferOptions{CheckpointEvery: 5, Checkpoint: noop}}, "Wafer"},
		{"resume with multiwafer", Options{Backend: MultiWafer, Wafer: WaferOptions{Resume: []byte{1}}}, "Wafer"},
		{"bad precision", Options{Backend: Local, Local: LocalOptions{Precision: Precision(9)}}, "Local.Precision"},
		{"negative workers", Options{Backend: Wafer, Wafer: WaferOptions{Workers: -1}}, "Wafer.Workers"},
		{"workers at the cap", Options{Backend: Wafer, Wafer: WaferOptions{Workers: MaxWorkers}}, ""},
		{"workers over the cap", Options{Backend: Wafer, Wafer: WaferOptions{Workers: MaxWorkers + 1}}, "Wafer.Workers"},
		{"huge workers", Options{Backend: Wafer, Wafer: WaferOptions{Workers: 1 << 20}}, "Wafer.Workers"},
		{"multiwafer workers over the cap", Options{Backend: MultiWafer, MultiWafer: MultiWaferOptions{Workers: MaxWorkers + 1}}, "MultiWafer.Workers"},
		{"negative multiwafer workers", Options{Backend: MultiWafer, MultiWafer: MultiWaferOptions{Workers: -1}}, "MultiWafer.Workers"},
		{"fastforward on workers", Options{Backend: Wafer, Wafer: WaferOptions{Workers: 4, Engine: "fastforward"}}, ""},
		{"seq on workers", Options{Backend: Wafer, Wafer: WaferOptions{Workers: 4, Engine: "seq"}}, "Wafer.Engine"},
		{"every without callback", Options{Backend: Wafer, Wafer: WaferOptions{CheckpointEvery: 5}}, "Wafer.Checkpoint"},
		{"callback without every", Options{Backend: Wafer, Wafer: WaferOptions{Checkpoint: noop}}, "Wafer.CheckpointEvery"},
		{"half-set grid", Options{Backend: MultiWafer, MultiWafer: MultiWaferOptions{Grid: multiwafer.Topology{W: 2}}}, "MultiWafer.Grid"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.field == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: want *OptionError, got %v", tc.name, err)
			continue
		}
		if oe.Field != tc.field {
			t.Errorf("%s: error names field %q, want %q (%v)", tc.name, oe.Field, tc.field, err)
		}
	}

	// Solve itself must refuse invalid options with the same typed error.
	p, _ := testProblem(3)
	var oe *OptionError
	if _, err := Solve(p, Options{Backend: Local, MultiWafer: MultiWaferOptions{Grid: multiwafer.Topology{W: 2, H: 1}}}); !errors.As(err, &oe) {
		t.Errorf("Solve with misrouted section: want *OptionError, got %v", err)
	}
}

// TestCheckpointRejectionShared pins the hoisted checkpoint/resume
// rejection: every backend without a restorable substrate refuses via
// the one solver.Options helper, so the error text cannot drift between
// layers.
func TestCheckpointRejectionShared(t *testing.T) {
	p, _ := testProblem(3)
	norm, diag := p.Op.Normalize()
	sb := stencil.ScaleRHS(p.B, diag)
	zeros := make([]float64, len(sb))
	opts := solver.Options{MaxIter: 2, Resume: []byte{1, 2, 3}}

	check := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: resume accepted by a backend with no restorable substrate", name)
		}
		if !strings.Contains(err.Error(), "does not support checkpoint/resume") {
			t.Fatalf("%s: rejection text drifted: %v", name, err)
		}
	}
	_, _, err := solver.Host{}.Solve(norm, sb, zeros, opts)
	check("host3d", err)
	_, _, err = multiwafer.NewBackend(multiwafer.Topology{W: 1, H: 1}).Solve(norm, sb, zeros, opts)
	check("multiwafer", err)

	// The heat steppers run many solves, so they refuse a checkpoint
	// request themselves instead of restarting every step from one blob.
	wafer := Options{Backend: Wafer, MaxIter: 2, Wafer: WaferOptions{Resume: opts.Resume}}
	_, err = RunHeat2D(nil, stencil.Mesh2D{NX: 4, NY: 4}, 0.5, make([]float64, 16), 1, 2, wafer)
	check("heat2d", err)
	_, err = RunHeat3D(nil, stencil.Mesh{NX: 2, NY: 2, NZ: 4}, 0.5, stencil.Dirichlet, make([]float64, 16), 1, wafer)
	check("heat3d", err)
}
