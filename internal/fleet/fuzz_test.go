package fleet

import (
	"bytes"
	"os"
	"testing"

	"telepresence/internal/core"
)

// FuzzJournalLookup writes arbitrary bytes at a unit's entry path. Lookup
// must not panic, and an entry it accepts must replay through the JSONL
// sink as exactly Rows newline-terminated lines and through the CSV sink
// without error. Seeds are a real entry, a non-compact one and torn ones.
func FuzzJournalLookup(f *testing.F) {
	const key, scope = "grid/x/a=1", "s"
	e, err := encodeEntry(key, scope, 2, []core.Row{
		map[string]float64{"a": 1, "seed": 42},
		map[string]any{"label": "x\ny", "v": []float64{1.5, -2}},
	})
	if err != nil {
		f.Fatal(err)
	}
	j, err := OpenJournal(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Write(e); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(j.entryPath(key, scope))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`{"a"`), []byte("{ \"a\"\n"), 1))
	f.Add([]byte(`{"format":"` + JournalEntryFormat + `","unit":"` + key + `","scope":"` + scope +
		`","rows":1,"jsonl":[null],"csv":[null]}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := j.entryPath(key, scope)
		if err := os.WriteFile(path, data, 0o644); err != nil {
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
