package core

import (
	"os"
	"testing"
)

// TestRejectedCellLeavesNoArtifacts: a cell that fails — on its own
// parameter checks, or when its schedule will not bind — returns an error
// and leaves the trace and profile directories empty (no half-written file,
// no leaked descriptor).
func TestRejectedCellLeavesNoArtifacts(t *testing.T) {
	for _, tc := range []struct {
		target string
		params map[string]float64
	}{
		{"congestion", map[string]float64{"floor_mbps": 0}},
		{"ccramp", map[string]float64{"floor_mbps": 0}},
		{"recramp", map[string]float64{"floor_mbps": 0}},
		// Passes the cell's own checks but fails schedule validation in Bind,
		// after the trace file was opened.
		{"handover", map[string]float64{"delay_ms": -100}},
	} {
		t.Run(tc.target, func(t *testing.T) {
			target, ok := LookupSweep(tc.target)
			if !ok {
				t.Fatalf("sweep target %q not registered", tc.target)
			}
			opts := Quick(1)
			opts.TraceDir, opts.ProfDir = t.TempDir(), t.TempDir()
			if _, err := target.Run(opts, target.WithDefaults(tc.params)); err == nil {
				t.Fatalf("%s %v: no error", tc.target, tc.params)
			}
			for _, dir := range []string{opts.TraceDir, opts.ProfDir} {
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					t.Errorf("%s left %s in %s", tc.target, e.Name(), dir)
				}
			}
		})
	}
}
