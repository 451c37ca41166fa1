package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"telepresence/internal/core"
)

func TestJournalRoundTrip(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rows := []core.Row{
		map[string]float64{"a": 1, "seed": 42},
		map[string]float64{"a": 2, "seed": 43},
	}
	e, err := encodeEntry("grid/x/a=1", "seed=1,dur=6000,reps=2", 3, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Write(e); err != nil {
		t.Fatal(err)
	}
	got, ok := j.Lookup("grid/x/a=1", "seed=1,dur=6000,reps=2")
	if !ok {
		t.Fatal("written entry not found")
	}
	if !reflect.DeepEqual(e, got) {
		t.Errorf("round trip mutated entry:\nwrote %+v\nread  %+v", e, got)
	}
	if got.Attempts != 3 || got.Rows != 2 || len(got.JSONL) != 2 || len(got.CSV) != 2 {
		t.Errorf("entry fields wrong: %+v", got)
	}
	if j.Len() != 1 {
		t.Errorf("Len = %d, want 1", j.Len())
	}
}

// TestJournalScopeMismatch: an entry is only visible under the exact
// (unit, scope) it was written for — resuming with different options
// re-runs everything instead of serving stale rows.
func TestJournalScopeMismatch(t *testing.T) {
	j, _ := OpenJournal(t.TempDir())
	e, _ := encodeEntry("grid/x/a=1", "seed=1,dur=6000,reps=2", 1, []core.Row{map[string]float64{"a": 1}})
	if err := j.Write(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Lookup("grid/x/a=1", "seed=2,dur=6000,reps=2"); ok {
		t.Error("entry visible under a different scope")
	}
	if _, ok := j.Lookup("grid/x/a=2", "seed=1,dur=6000,reps=2"); ok {
		t.Error("entry visible under a different unit")
	}
	if _, ok := j.Lookup("grid/x/a=1", "seed=1,dur=6000,reps=2"); !ok {
		t.Error("entry lost under its own key")
	}
}

// TestJournalTornEntryRemoved: a torn or foreign file under an entry's
// name is treated as a miss and removed, so the unit re-runs and rewrites
// it.
func TestJournalTornEntryRemoved(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	path := j.entryPath("grid/x/a=1", "s")
	for _, torn := range []string{
		"",                     // empty (crash before any bytes)
		`{"format":"telep`,     // truncated JSON
		`{"format":"other/1"}`, // foreign format
		`{"format":"` + JournalEntryFormat + `","unit":"grid/x/a=1","scope":"s","rows":2,"jsonl":[],"csv":[]}`, // row-count mismatch
		// Valid but not compact JSON: replayed verbatim, the row would span
		// two output lines.
		`{"format":"` + JournalEntryFormat + `","unit":"grid/x/a=1","scope":"s","rows":1,"jsonl":[{ "a" :` + "\n" + ` 1 }],"csv":[["1"]]}`,
	} {
		if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := j.Lookup("grid/x/a=1", "s"); ok {
			t.Errorf("torn entry %.30q accepted", torn)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("torn entry %.30q not removed", torn)
		}
	}
}

// TestJournalNoTempLeak: atomic writes leave no temp files behind, and
// temp files never count as entries.
func TestJournalNoTempLeak(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	for i := 0; i < 8; i++ {
		e, _ := encodeEntry("u"+string(rune('0'+i)), "s", 1, []core.Row{map[string]float64{"i": float64(i)}})
		if err := j.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, ".entry-*"))
	if len(matches) != 0 {
		t.Errorf("temp files leaked: %v", matches)
	}
	if j.Len() != 8 {
		t.Errorf("Len = %d, want 8", j.Len())
	}
}

func TestOpenJournalRejectsEmpty(t *testing.T) {
	if _, err := OpenJournal(""); err == nil {
		t.Error("empty journal dir accepted")
	}
}
