package fleet

import (
	"testing"
	"time"

	"telepresence/internal/core"
)

// TestSweepManifestCellTimingsComplete pins the manifest's per-unit
// accounting at both serial and parallel worker counts: every grid cell
// appears in its section exactly once, in grid order, with a non-negative
// duration and at least one attempt, and the per-run rows_per_sec derives
// from the recorded totals.
func TestSweepManifestCellTimingsComplete(t *testing.T) {
	spec := testSweepSpec()
	cells := spec.Cells()
	for _, workers := range []int{1, 4} {
		opts := core.Quick(5)
		results, _, err := sweepRows(spec, opts, Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		m := NewManifest(opts, workers, 10, results)
		if len(m.Sections) != 1 || len(m.Sections[0].Units) != len(cells) {
			t.Fatalf("workers=%d: manifest sections %+v, grid has %d cells", workers, m.Sections, len(cells))
		}
		for i, u := range m.Sections[0].Units {
			if u.Label != cells[i].Label || u.Key != unitKey(spec.Target, cells[i].Label) {
				t.Errorf("workers=%d: entry %d is %q (%s), want cell %q", workers, i, u.Label, u.Key, cells[i].Label)
			}
			if u.WallMs < 0 {
				t.Errorf("workers=%d: cell %d wall %v ms is negative", workers, i, u.WallMs)
			}
			if u.Attempts < 1 {
				t.Errorf("workers=%d: cell %d attempts = %d, want >= 1", workers, i, u.Attempts)
			}
			if u.Rows != 1 {
				t.Errorf("workers=%d: cell %d rows = %d, want 1", workers, i, u.Rows)
			}
		}
		if m.RowsPerSec <= 0 {
			t.Errorf("workers=%d: run rows_per_sec = %v, want > 0", workers, m.RowsPerSec)
		}
	}
}

// TestManifestPerExperimentRowsPerSec pins the run manifest's throughput
// accounting for one experiment: its section carries every rep as a unit
// with rows, attempts and wall time, and rows over the cumulative rep
// wall time is positive whenever rows were emitted and wall time elapsed.
func TestManifestPerExperimentRowsPerSec(t *testing.T) {
	exp := testExperiment("rps", 3, false)
	results, _, err := runRows([]core.Experiment{exp}, core.Quick(3), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(core.Quick(3), 4, 10, results)
	if len(m.Sections) != 1 || m.Sections[0].Name != "rps" {
		t.Fatalf("manifest sections %+v, want one section rps", m.Sections)
	}
	s := m.Sections[0]
	if s.Rows == 0 || len(s.Units) != 3 {
		t.Errorf("experiment accounting wrong: %+v", s)
	}
	var wall time.Duration
	for _, u := range s.Units {
		if u.Attempts < 1 {
			t.Errorf("unit %s attempts = %d, want >= 1", u.Key, u.Attempts)
		}
		if u.WallMs < 0 {
			t.Errorf("unit %s wall %v ms is negative", u.Key, u.WallMs)
		}
		wall += time.Duration(u.WallMs * float64(time.Millisecond))
	}
	if rps := rowsPerSec(s.Rows, wall); rps <= 0 {
		t.Errorf("experiment rows/sec = %v, want > 0 (rows %d over %v)", rps, s.Rows, wall)
	}
}
