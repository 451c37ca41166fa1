package fleet

import (
	"testing"

	"telepresence/internal/core"
)

// TestSweepManifestCellTimingsComplete pins the manifest's per-cell
// accounting at both serial and parallel worker counts: every grid cell
// appears in cell_timings exactly once (indexed, in grid order), with a
// non-negative duration and at least one attempt, and the per-run
// rows_per_sec derives from the recorded totals.
func TestSweepManifestCellTimingsComplete(t *testing.T) {
	spec := testSweepSpec()
	cells := spec.Cells()
	for _, workers := range []int{1, 4} {
		opts := core.Quick(5)
		results, _, err := sweepRows(spec, opts, Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		m := NewSweepManifest(spec, opts, workers, 10, results)
		if len(m.CellTimings) != len(cells) {
			t.Fatalf("workers=%d: cell_timings has %d entries, grid has %d",
				workers, len(m.CellTimings), len(cells))
		}
		seen := map[int]bool{}
		for i, ct := range m.CellTimings {
			if seen[ct.Index] {
				t.Errorf("workers=%d: cell %d appears twice in cell_timings", workers, ct.Index)
			}
			seen[ct.Index] = true
			if ct.Index != cells[i].Index || ct.Label != cells[i].Label {
				t.Errorf("workers=%d: entry %d is cell %d %q, want %d %q",
					workers, i, ct.Index, ct.Label, cells[i].Index, cells[i].Label)
			}
			if ct.WallMs < 0 {
				t.Errorf("workers=%d: cell %d wall %v ms is negative", workers, ct.Index, ct.WallMs)
			}
			if ct.Attempts < 1 {
				t.Errorf("workers=%d: cell %d attempts = %d, want >= 1", workers, ct.Index, ct.Attempts)
			}
			if ct.Rows != 1 {
				t.Errorf("workers=%d: cell %d rows = %d, want 1", workers, ct.Index, ct.Rows)
			}
		}
		if m.RowsPerSec <= 0 {
			t.Errorf("workers=%d: run rows_per_sec = %v, want > 0", workers, m.RowsPerSec)
		}
	}
}

// TestManifestPerExperimentRowsPerSec pins the run manifest's throughput
// accounting: each experiment entry reports rows over its cumulative rep
// wall time, positive whenever rows were emitted and wall time elapsed.
func TestManifestPerExperimentRowsPerSec(t *testing.T) {
	exp, _ := flakyExperiment("rps", 3, 0, false)
	results, _, err := runRows([]core.Experiment{exp}, core.Quick(3), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(core.Quick(3), 4, 10, results)
	if len(m.Experiments) != 1 {
		t.Fatalf("manifest experiments = %d, want 1", len(m.Experiments))
	}
	e := m.Experiments[0]
	if e.Rows == 0 || e.Reps != 3 || e.Attempts < e.Reps {
		t.Errorf("experiment accounting wrong: %+v", e)
	}
	if e.WallMs < 0 {
		t.Errorf("experiment wall %v ms is negative", e.WallMs)
	}
	if e.RowsPerSec <= 0 {
		t.Errorf("experiment rows_per_sec = %v, want > 0 (rows %d over %v ms)",
			e.RowsPerSec, e.Rows, e.WallMs)
	}
}
