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

// FuzzParseFaultPlan drives the -chaos spec parser. It must not panic, and
// a plan it accepts has every probability in [0,1], a non-negative Delay
// and a non-negative FailAttempts.
func FuzzParseFaultPlan(f *testing.F) {
	f.Add("panic=0.5,error=0.25,delay=0.1,delay_ms=20,sink=0.75,attempts=2")
	f.Add("delay=1")
	f.Add("panic=NaN")
	f.Add("attempts=-5")
	f.Add("attempts=1e300")
	f.Add("attempts=2.9")
	f.Add("delay_ms=1e300")
	f.Add("delay_ms=Inf")
	f.Add(" panic = 1 , , attempts=0x1p3")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultPlan(spec, 1)
		if err != nil {
			return
		}
		for _, v := range []float64{p.PanicProb, p.ErrorProb, p.DelayProb, p.SinkErrorProb} {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("accepted %q with probability %v: %+v", spec, v, p)
			}
		}
		if p.Delay < 0 || p.FailAttempts < 0 {
			t.Fatalf("accepted %q with negative Delay or FailAttempts: %+v", spec, p)
		}
	})
}
