package core

import (
	"os"
	"path/filepath"
	"testing"

	"telepresence/internal/vprof"
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

// TestCellProfileHasNoUnlabeledSite: every event of a profiled session
// cell is attributed to a named site, including the cell's own floor-window
// samples. ccramp is the cell that schedules its own events on the session
// scheduler.
func TestCellProfileHasNoUnlabeledSite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full ccramp session")
	}
	target, ok := LookupSweep("ccramp")
	if !ok {
		t.Fatal("ccramp not registered")
	}
	opts := Quick(1)
	opts.ProfDir = t.TempDir()
	if _, err := target.Run(opts, target.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(opts.ProfDir, "*"+ProfJSONLSuffix))
	if err != nil || len(files) != 1 {
		t.Fatalf("profiles %v (%v), want one", files, err)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := vprof.ParseReport(f)
	if err != nil {
		t.Fatal(err)
	}
	var floorEvents uint64
	for _, s := range r.Sites {
		if s.Site == vprof.Unlabeled {
			t.Errorf("%d events at %s", s.Events, vprof.Unlabeled)
		}
		if s.Site == "core/ramp.floor_sample" {
			floorEvents = s.Events
		}
	}
	if floorEvents != 2 {
		t.Errorf("core/ramp.floor_sample fired %d times, want 2", floorEvents)
	}
}
