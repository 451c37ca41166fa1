package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"telepresence/internal/core"
)

// FuzzJournalLookup writes arbitrary bytes as a journal segment. Lookup
// must not panic, and an entry it accepts must replay through the JSONL
// sink as exactly Rows newline-terminated lines and through the CSV sink
// without error. Seeds are a real segment, a non-compact one and torn ones.
func FuzzJournalLookup(f *testing.F) {
	const key, scope = "grid/x/a=1", "s"
	e, err := encodeEntry(key, scope, []core.Row{
		map[string]float64{"a": 1, "seed": 42},
		map[string]any{"label": "x\ny", "v": []float64{1.5, -2}},
	})
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Write(e); err != nil {
		f.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segmentPattern))
	if err != nil || len(segs) != 1 {
		f.Fatalf("segments %v: %v", segs, err)
	}
	valid, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	if err := os.Remove(segs[0]); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`{"a"`), []byte("{ \"a\"\t"), 1))
	f.Add([]byte(`{"format":"` + JournalEntryFormat + `","unit":"` + key + `","scope":"` + scope +
		`","rows":1,"jsonl":[null],"csv":[null]}` + "\n"))
	f.Add([]byte{})

	path := filepath.Join(dir, "segment-fuzz.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := j.Lookup(key, scope)
		if !ok {
			return
		}
		var out bytes.Buffer
		if err := NewJSONLSink(&out).(EntrySink).WriteEntry(e); err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(out.Bytes(), []byte{'\n'}); n != e.Rows ||
			(e.Rows > 0 && out.Bytes()[out.Len()-1] != '\n') {
			t.Fatalf("replayed %d rows as %d lines: %q", e.Rows, n, out.Bytes())
		}
		cs := NewCSVSink(&bytes.Buffer{}, struct{ A float64 }{}).(EntrySink)
		if err := cs.WriteEntry(e); err != nil {
			t.Fatalf("CSV replay: %v", err)
		}
		if err := cs.Close(); err != nil {
			t.Fatalf("CSV replay: %v", err)
		}
	})
}
