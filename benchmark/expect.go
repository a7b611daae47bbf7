package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

//go:embed expect.json
var expectJSON []byte

// expectation pins one workload's simulated outputs. Fingerprint and
// TrueResidual hold at the pinned seed only; SimCyclesPerIter holds at
// every seed, because no simulated timing depends on the data.
type expectation struct {
	Fingerprint      string  `json:"fingerprint"`
	SimCyclesPerIter float64 `json:"sim_cycles_per_iter"`
	TrueResidual     float64 `json:"true_residual"`
	seed             int64   // the file's pinned seed
}

type expectFile struct {
	Seed      int64                   `json:"seed"`
	Workloads map[string]*expectation `json:"workloads"`
}

const expectPath = "benchmark/expect.json"

func loadExpect() (expectFile, error) {
	var f expectFile
	if err := json.Unmarshal(expectJSON, &f); err != nil {
		return f, fmt.Errorf("%s: %w", expectPath, err)
	}
	for _, e := range f.Workloads {
		e.seed = f.Seed
	}
	return f, nil
}

// check returns one reason per pinned value the run's reference result
// departs from. A nil expectation (toy shapes, -update-expect) pins
// nothing; the run's self-consistency checks still apply.
func (e *expectation) check(seed int64, fp uint64, cycles, residual float64) []string {
	if e == nil {
		return nil
	}
	var reasons []string
	if cycles != e.SimCyclesPerIter {
		reasons = append(reasons, fmt.Sprintf("sim_cycles_per_iter %v, pinned %v: simulated time moved (regenerate with -update-expect if intended)", cycles, e.SimCyclesPerIter))
	}
	if seed == e.seed {
		if hex(fp) != e.Fingerprint {
			reasons = append(reasons, fmt.Sprintf("fingerprint %s, pinned %s: output bits moved", hex(fp), e.Fingerprint))
		}
		if residual != e.TrueResidual {
			reasons = append(reasons, fmt.Sprintf("true_residual %v, pinned %v", residual, e.TrueResidual))
		}
	}
	return reasons
}

// writeExpect regenerates expect.json from untraced runs at seed.
func writeExpect(seed int64, runs []*runResult) error {
	f := expectFile{Seed: seed, Workloads: make(map[string]*expectation)}
	for _, r := range runs {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d failed operations; not pinning a failing run", r.Workload, r.Failed)
		}
		f.Workloads[r.Workload] = &expectation{
			Fingerprint:      r.Fingerprint,
			SimCyclesPerIter: r.Metrics["sim_cycles_per_iter"].Value,
			TrueResidual:     r.TrueResidual,
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectPath, append(data, '\n'), 0o644)
}
