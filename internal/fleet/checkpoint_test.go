package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
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
	e, err := encodeEntry("grid/x/a=1", "seed=1,dur=6000,reps=2", rows)
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
	if got.Rows != 2 || len(got.JSONL) != 2 || len(got.CSV) != 2 {
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
	e, _ := encodeEntry("grid/x/a=1", "seed=1,dur=6000,reps=2", []core.Row{map[string]float64{"a": 1}})
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

// segments lists a journal directory's segment files.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, segmentPattern))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestJournalTornEntryRemoved: a segment cut mid-record by a crash, its
// tail zero-filled, still serves every record before the cut, and the torn
// unit misses so it re-runs. Foreign or malformed records are misses too,
// and a record the re-run writes then serves.
func TestJournalTornEntryRemoved(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	for i := 1; i <= 3; i++ {
		e, _ := encodeEntry(fmt.Sprintf("grid/x/a=%d", i), "s", []core.Row{map[string]float64{"a": float64(i)}})
		if err := j.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want one", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	third := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	cut := third + (len(data)-third)/2
	torn := append(data[:cut:cut], make([]byte, len(data)-cut)...)
	if err := os.WriteFile(segs[0], torn, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, _ := OpenJournal(dir)
	for _, unit := range []string{"grid/x/a=1", "grid/x/a=2"} {
		if _, ok := fresh.Lookup(unit, "s"); !ok {
			t.Errorf("%s, before the cut, no longer served", unit)
		}
	}
	if _, ok := fresh.Lookup("grid/x/a=3", "s"); ok {
		t.Error("torn record accepted")
	}
	if n := fresh.Len(); n != 2 {
		t.Errorf("Len = %d after the cut, want 2", n)
	}

	for _, bad := range []string{
		"",                     // empty line
		`{"format":"telep`,     // truncated JSON
		`{"format":"other/1"}`, // foreign format
		`{"format":"` + JournalEntryFormat + `","unit":"grid/x/a=1","scope":"s","rows":2,"jsonl":[],"csv":[]}`, // row-count mismatch
		// Valid but not compact JSON: replayed verbatim, the row would span
		// two output lines. The raw newline is escaped here so the record
		// stays one line of the segment.
		`{"format":"` + JournalEntryFormat + `","unit":"grid/x/a=1","scope":"s","rows":1,"jsonl":[{ "a" :` + "\t" + ` 1 }],"csv":[["1"]]}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "segment-bad.jsonl"), []byte(bad+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		j, _ := OpenJournal(dir)
		if _, ok := j.Lookup("grid/x/a=1", "s"); ok {
			t.Errorf("bad record %.30q accepted", bad)
		}
		e, _ := encodeEntry("grid/x/a=1", "s", []core.Row{map[string]float64{"a": 1}})
		if err := j.Write(e); err != nil {
			t.Fatal(err)
		}
		if _, ok := j.Lookup("grid/x/a=1", "s"); !ok {
			t.Errorf("after bad record %.30q, the re-run's record is not served", bad)
		}
	}
}

// TestJournalNoTempLeak: a checkpointed run leaves nothing in the journal
// directory but its one segment, and every unit is in it.
func TestJournalNoTempLeak(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	if _, err := RunStream([]core.Experiment{testExperiment("leak", 8, false)}, core.Quick(1),
		Config{Workers: 4, Checkpoint: j},
		func(core.Experiment) (Sink, error) { return NewJSONLSink(io.Discard), nil }); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if ok, _ := filepath.Match(segmentPattern, e.Name()); !ok || e.IsDir() {
			t.Errorf("journal directory holds %q, not a segment", e.Name())
		}
	}
	if len(ents) != 1 {
		t.Errorf("journal directory holds %d files, want one segment", len(ents))
	}
	if j.Len() != 8 {
		t.Errorf("Len = %d, want 8", j.Len())
	}
}

// TestJournalConcurrentWriters: records written through one Journal from
// many goroutines at once never interleave; a fresh journal finds every
// one whole.
func TestJournalConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	const writers, each = 8, 25
	entries := make([]*JournalEntry, writers*each)
	for i := range entries {
		// Rows of varied length, so records straddle page boundaries.
		rows := make([]core.Row, 1+i%7)
		for r := range rows {
			rows[r] = map[string]any{"i": i, "r": r, "pad": string(bytes.Repeat([]byte{'x'}, 100*r))}
		}
		var err error
		if entries[i], err = encodeEntry(fmt.Sprintf("grid/c/i=%d", i), "s", rows); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(entries); i += writers {
				if err := j.Write(entries[i]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fresh, _ := OpenJournal(dir)
	for _, e := range entries {
		got, ok := fresh.Lookup(e.Unit, "s")
		if !ok {
			t.Fatalf("%s not found whole", e.Unit)
		}
		if !reflect.DeepEqual(e, got) {
			t.Fatalf("%s read back changed", e.Unit)
		}
	}
	if n := fresh.Len(); n != len(entries) {
		t.Errorf("Len = %d, want %d", n, len(entries))
	}
}

// TestJournalIgnoresV1Entries: a journal directory written by the old
// one-file-per-unit format (telepresence-journal/1, <hash>.json) is
// neither read nor deleted; its units re-run.
func TestJournalIgnoresV1Entries(t *testing.T) {
	dir := t.TempDir()
	const unit, scope = "grid/x/a=1", "s"
	h := sha256.Sum256([]byte(unit + "\x00" + scope))
	old := filepath.Join(dir, hex.EncodeToString(h[:16])+".json")
	v1 := `{"format":"telepresence-journal/1","unit":"` + unit + `","scope":"` + scope +
		`","attempts":1,"rows":1,"jsonl":[{"a":1}],"csv":[["1"]]}`
	if err := os.WriteFile(old, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	// The same record inside a segment is refused by its format too.
	if err := os.WriteFile(filepath.Join(dir, "segment-v1.jsonl"), []byte(v1+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, _ := OpenJournal(dir)
	if _, ok := j.Lookup(unit, scope); ok {
		t.Error("telepresence-journal/1 entry served")
	}
	if n := j.Len(); n != 0 {
		t.Errorf("Len = %d, want 0", n)
	}
	if got, err := os.ReadFile(old); err != nil || string(got) != v1 {
		t.Errorf("old entry file touched: %v", err)
	}
}

func TestOpenJournalRejectsEmpty(t *testing.T) {
	if _, err := OpenJournal(""); err == nil {
		t.Error("empty journal dir accepted")
	}
}
