package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"telepresence/internal/core"
	"telepresence/internal/telemetry"
)

// readDir returns name → contents for every file in dir.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestTraceFilesDeterministicAcrossWorkers pins the fleet-level telemetry
// determinism contract: per-cell trace and metrics files are byte-identical
// whether the cells run sequentially or race across eight workers, because
// traces are keyed by virtual time and cell-derived seeds only.
func TestTraceFilesDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full burstloss sessions")
	}
	exps, err := Select("burstloss")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Quick(5)
	run := func(workers int) map[string][]byte {
		dir := t.TempDir()
		o := opts
		o.TraceDir, o.MetricsDir = dir, dir
		if _, _, err := runRows(exps, o, Config{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return readDir(t, dir)
	}
	seq := run(1)
	par := run(8)

	if len(seq) == 0 {
		t.Fatal("no telemetry files written")
	}
	var traces int
	for name, b := range seq {
		pb, ok := par[name]
		if !ok {
			t.Errorf("parallel run missing %s", name)
			continue
		}
		if !bytes.Equal(b, pb) {
			t.Errorf("%s differs between workers=1 and workers=8", name)
		}
		if filepath.Ext(name) == ".jsonl" {
			traces++
			sum, err := telemetry.Summarize(bytes.NewReader(b))
			if err != nil {
				t.Errorf("%s does not validate: %v", name, err)
			} else if sum.Events == 0 {
				t.Errorf("%s is empty", name)
			}
		}
	}
	if want := len(par); len(seq) != want {
		t.Errorf("file count differs: %d vs %d", len(seq), want)
	}
	// One trace per default-grid cell.
	if want := exps[0].Reps(opts); traces != want {
		t.Errorf("%d trace files for %d cells", traces, want)
	}
}

// TestManifestTimingBreakdown pins the manifest's throughput and
// accounting fields: run-level rows/sec from rows and wall time, per-unit
// wall time, and the failure and skip markers.
func TestManifestTimingBreakdown(t *testing.T) {
	results := []UnitResult{
		{Section: "a", Label: "rep=0", Key: "grid/a/rep=0", Rows: 4, Wall: 500 * time.Millisecond, Attempts: 1},
		{Section: "a", Label: "rep=1", Key: "grid/a/rep=1", Rows: 6, Wall: time.Second, Attempts: 2, Resumed: true},
		{Section: "b", Label: "x=1", Key: "grid/b/x=1", Attempts: 1, Err: os.ErrClosed},
		{Section: "b", Label: "x=2", Key: "grid/b/x=2", Err: ErrInterrupted},
	}
	m := NewManifest(core.Options{Seed: 1}, 4, 5*time.Second, results)
	if m.Format != ManifestFormat {
		t.Errorf("format %q", m.Format)
	}
	if m.Rows != 10 || m.RowsPerSec != 2 {
		t.Errorf("run totals rows=%d rows/sec=%g, want 10 and 2", m.Rows, m.RowsPerSec)
	}
	if len(m.Sections) != 2 || m.Sections[0].Rows != 10 || m.Sections[1].Rows != 0 {
		t.Fatalf("sections %+v", m.Sections)
	}
	a0, a1 := m.Sections[0].Units[0], m.Sections[0].Units[1]
	if a0.Key != "grid/a/rep=0" || a0.Rows != 4 || a0.WallMs != 500 || a0.Attempts != 1 || a0.Resumed {
		t.Errorf("unit a/rep=0 %+v", a0)
	}
	if a1.Rows != 6 || a1.WallMs != 1000 || a1.Attempts != 2 || !a1.Resumed || m.Resumed != 1 {
		t.Errorf("unit a/rep=1 %+v (run resumed %d)", a1, m.Resumed)
	}
	b0, b1 := m.Sections[1].Units[0], m.Sections[1].Units[1]
	if b0.Skipped || !b1.Skipped || !m.Interrupted {
		t.Errorf("skip markers: %+v / %+v, interrupted=%v", b0, b1, m.Interrupted)
	}
	if len(m.Failures) != 1 || m.Failures[0].Unit != "grid/b/x=1" || m.Failures[0].Error == "" {
		t.Errorf("failures %+v, want only grid/b/x=1", m.Failures)
	}
}

// TestSweepManifestCellTimings pins a sweep's per-cell timing breakdown
// and run-level throughput: a sweep is one section named by its target,
// one unit per cell keyed and labelled by the cell's parameters.
func TestSweepManifestCellTimings(t *testing.T) {
	results := []UnitResult{
		{Section: "burstloss", Label: "loss_bad-0.5", Key: unitKey("burstloss", "loss_bad-0.5"), Rows: 1, Wall: 500 * time.Millisecond, Attempts: 1},
		{Section: "burstloss", Label: "loss_bad-0.9", Key: unitKey("burstloss", "loss_bad-0.9"), Rows: 3, Wall: time.Second, Attempts: 1},
	}
	m := NewManifest(core.Options{Seed: 1}, 2, 2*time.Second, results)
	if m.Format != ManifestFormat {
		t.Errorf("format %q", m.Format)
	}
	if m.Rows != 4 || m.RowsPerSec != 2 {
		t.Errorf("totals rows=%d rows/sec=%g", m.Rows, m.RowsPerSec)
	}
	if len(m.Sections) != 1 || m.Sections[0].Name != "burstloss" || m.Sections[0].Rows != 4 {
		t.Fatalf("sections %+v", m.Sections)
	}
	if len(m.Sections[0].Units) != 2 {
		t.Fatalf("%d cell timings", len(m.Sections[0].Units))
	}
	c0, c1 := m.Sections[0].Units[0], m.Sections[0].Units[1]
	if c0.Label != "loss_bad-0.5" || c0.Key != "grid/burstloss/loss_bad-0.5" || c0.Rows != 1 || c0.WallMs != 500 {
		t.Errorf("cell 0 %+v", c0)
	}
	if c1.Label != "loss_bad-0.9" || c1.Key != "grid/burstloss/loss_bad-0.9" || c1.Rows != 3 || c1.WallMs != 1000 {
		t.Errorf("cell 1 %+v", c1)
	}
}
