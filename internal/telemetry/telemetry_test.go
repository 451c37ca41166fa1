package telemetry

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"telepresence/internal/simtime"
)

// emitAll fires every emitter exactly once, covering the whole schema.
func emitAll(tr *Tracer, now simtime.Time) {
	tr.NetemEnqueue(now, "u1.up", 1200, 2400, 0.96)
	tr.NetemDrop(now, "u1.up", 1200, "burst")
	tr.NetemDeliver(now, "u1.up", 1200)
	tr.NetemGEState(now, "u1.up", true)
	tr.RateReport(now, 0, 0.05, 42.5, 1.4e6)
	tr.RateTarget(now, 0, 1.2e6, 1.1e6, "backoff-loss")
	tr.NackSent(now, 0, 1, 3)
	tr.NackAnswered(now, 0, 2, 1)
	tr.ParitySent(now, 0, 1100)
	tr.Repair(now, 0, 1, "rtx", 2)
	tr.Expire(now, 0, 1, 1)
	tr.FrameSent(now, 0, 9000)
	tr.FrameThinned(now, 0)
	tr.FrameDecoded(now, 0, 1, 83.25, true)
	tr.FrameUndecodable(now, 0, 1)
	tr.FrameTimeout(now, 0, 1, 2)
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	emitAll(tr, simtime.Time(5*simtime.Millisecond)) // must not panic
	if tr.Events() != 0 {
		t.Fatalf("nil tracer Events() = %d", tr.Events())
	}
	if tr.Err() != nil {
		t.Fatalf("nil tracer Err() = %v", tr.Err())
	}
}

func TestTracerBytesAreDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		for i := 0; i < 3; i++ {
			emitAll(tr, simtime.Time(simtime.Duration(i)*simtime.Millisecond/4))
		}
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical emission sequences produced different bytes")
	}
	if n := bytes.Count(a, []byte{'\n'}); n != 48 {
		t.Fatalf("expected 48 lines, got %d", n)
	}
}

func TestTracerExactEncoding(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	now := simtime.Time(1500 * simtime.Microsecond) // 1.5 ms
	tr.NetemEnqueue(now, "u1.up", 1200, 2400, 0.5)
	tr.FrameDecoded(now, 0, 1, 83.25, false)
	want := `{"t_ms":1.5,"cat":"netem","ev":"enqueue","link":"u1.up","size":1200,"queue":2400,"tx_ms":0.5}
{"t_ms":1.5,"cat":"vca","ev":"frame_decoded","sender":0,"receiver":1,"lat_ms":83.25,"live":false}
`
	if got := buf.String(); got != want {
		t.Fatalf("encoding mismatch:\ngot  %q\nwant %q", got, want)
	}
	if tr.Events() != 2 {
		t.Fatalf("Events() = %d, want 2", tr.Events())
	}
}

func TestTracerEscapesStrings(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.NetemDeliver(0, "we\"ird\\link\x01", 1)
	line := buf.String()
	if want := `"link":"we\"ird\\link\u0001"`; !strings.Contains(line, want) {
		t.Fatalf("escaping failed: %q", line)
	}
	if err := ValidateLine(bytes.TrimRight(buf.Bytes(), "\n")); err != nil {
		t.Fatalf("escaped line does not validate: %v", err)
	}
}

func TestTracerSteadyStateAllocs(t *testing.T) {
	tr := NewTracer(io.Discard)
	emitAll(tr, 0) // warm up: grow the line buffer once
	allocs := testing.AllocsPerRun(100, func() {
		emitAll(tr, simtime.Time(7*simtime.Millisecond))
	})
	if allocs != 0 {
		t.Fatalf("steady-state emission allocates %.1f/op, want 0", allocs)
	}
}

type failWriter struct{ err error }

func (w failWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestTracerLatchesWriteError(t *testing.T) {
	boom := errors.New("boom")
	tr := NewTracer(failWriter{boom})
	tr.FrameThinned(0, 0)
	tr.FrameThinned(0, 0)
	if !errors.Is(tr.Err(), boom) {
		t.Fatalf("Err() = %v, want boom", tr.Err())
	}
	if tr.Events() != 0 {
		t.Fatalf("Events() = %d after failed writes", tr.Events())
	}
}

func TestEveryEmitterValidatesAgainstSchema(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	emitAll(tr, simtime.Time(3*simtime.Millisecond))
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte{'\n'})
	// One line per schema entry: emitAll covers the whole schema.
	var schemaEvents int
	for _, evs := range Schema {
		schemaEvents += len(evs)
	}
	if len(lines) != schemaEvents {
		t.Fatalf("emitAll wrote %d lines, schema has %d events", len(lines), schemaEvents)
	}
	seen := map[string]bool{}
	for i, line := range lines {
		if err := ValidateLine(line); err != nil {
			t.Errorf("line %d %q: %v", i+1, line, err)
		}
		// Track cat/ev coverage crudely via the envelope prefix.
		if j := bytes.Index(line, []byte(`"ev":"`)); j >= 0 {
			rest := line[j+6:]
			seen[string(rest[:bytes.IndexByte(rest, '"')])] = true
		}
	}
	for _, evs := range Schema {
		for ev := range evs {
			if !seen[ev] {
				t.Errorf("schema event %q not covered by emitAll", ev)
			}
		}
	}
}

func TestValidateLineRejections(t *testing.T) {
	cases := []struct {
		name, line string
	}{
		{"bad json", `{"t_ms":`},
		{"missing t_ms", `{"cat":"netem","ev":"deliver","link":"l","size":1}`},
		{"string t_ms", `{"t_ms":"5","cat":"netem","ev":"deliver","link":"l","size":1}`},
		{"unknown cat", `{"t_ms":1,"cat":"nope","ev":"deliver","link":"l","size":1}`},
		{"unknown ev", `{"t_ms":1,"cat":"netem","ev":"nope","link":"l","size":1}`},
		{"missing field", `{"t_ms":1,"cat":"netem","ev":"deliver","link":"l"}`},
		{"wrong type", `{"t_ms":1,"cat":"netem","ev":"deliver","link":"l","size":"1"}`},
		{"undeclared field", `{"t_ms":1,"cat":"netem","ev":"deliver","link":"l","size":1,"extra":2}`},
		{"negative t_ms", `{"t_ms":-1,"cat":"netem","ev":"deliver","link":"l","size":1}`},
		{"t_ms past the clock", `{"t_ms":1e13,"cat":"netem","ev":"deliver","link":"l","size":1}`},
		{"fractional integer", `{"t_ms":1,"cat":"netem","ev":"deliver","link":"l","size":1.5}`},
		{"overflowing number", `{"t_ms":1,"cat":"rate","ev":"report","sender":0,"loss":0,"owd_ms":1e400,"rate_bps":1}`},
	}
	for _, c := range cases {
		if err := ValidateLine([]byte(c.line)); err == nil {
			t.Errorf("%s: ValidateLine accepted %q", c.name, c.line)
		}
	}
	ok := `{"t_ms":1.5,"cat":"netem","ev":"deliver","link":"l","size":1}`
	if err := ValidateLine([]byte(ok)); err != nil {
		t.Errorf("valid line rejected: %v", err)
	}
}

func TestSchemaDocIsSortedAndComplete(t *testing.T) {
	doc := SchemaDoc()
	var schemaEvents int
	for _, evs := range Schema {
		schemaEvents += len(evs)
	}
	lines := strings.Split(strings.TrimRight(doc, "\n"), "\n")
	if len(lines) != schemaEvents {
		t.Fatalf("SchemaDoc has %d lines, schema %d events", len(lines), schemaEvents)
	}
	if !sortedStrings(lines) {
		t.Fatal("SchemaDoc lines not sorted")
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// ---- metrics ----

func TestMetricsCSV(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetrics(&buf, FormatCSV)
	x := 1.0
	m.Register("a", func() float64 { return x })
	m.Register("b", func() float64 { return -x / 2 })
	m.Sample(100)
	x = 2
	m.Sample(200.5)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	want := "t_ms,a,b\n100,1,-0.5\n200.5,2,-1\n"
	if got := buf.String(); got != want {
		t.Fatalf("CSV mismatch:\ngot  %q\nwant %q", got, want)
	}
	if m.Rows() != 2 {
		t.Fatalf("Rows() = %d", m.Rows())
	}
}

func TestMetricsJSONL(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetrics(&buf, FormatJSONL)
	m.Register("rate", func() float64 { return 1.5e6 })
	m.Sample(0)
	want := `{"t_ms":0,"rate":1500000}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("JSONL mismatch:\ngot  %q\nwant %q", got, want)
	}
}

func TestNilMetricsIsInert(t *testing.T) {
	var m *Metrics
	m.Register("a", func() float64 { return 1 })
	m.Sample(0)
	if m.Rows() != 0 || m.Names() != nil || m.Err() != nil {
		t.Fatal("nil metrics not inert")
	}
}

func TestMetricsRegistrationGuards(t *testing.T) {
	m := NewMetrics(io.Discard, FormatCSV)
	m.Register("a", func() float64 { return 0 })
	mustPanic(t, "duplicate name", func() { m.Register("a", func() float64 { return 0 }) })
	m.Sample(0)
	mustPanic(t, "register after sample", func() { m.Register("b", func() float64 { return 0 }) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestParseFormat(t *testing.T) {
	if f, err := ParseFormat("csv"); err != nil || f != FormatCSV {
		t.Fatalf("csv: %v %v", f, err)
	}
	if f, err := ParseFormat("jsonl"); err != nil || f != FormatJSONL {
		t.Fatalf("jsonl: %v %v", f, err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("xml accepted")
	}
}

// ---- summary ----

func TestSummarizeAggregates(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	ms := func(v int) simtime.Time { return simtime.Time(simtime.Duration(v) * simtime.Millisecond) }
	tr.NetemEnqueue(ms(1), "u1.up", 1000, 1000, 0.8)
	tr.NetemEnqueue(ms(2), "u1.up", 500, 1500, 0.4)
	tr.NetemDeliver(ms(3), "u1.up", 1000)
	tr.NetemDrop(ms(4), "u1.up", 500, "burst")
	tr.NetemDrop(ms(5), "u1.up", 500, "queue")
	tr.NetemDrop(ms(6), "u1.up", 500, "loss")
	tr.NetemGEState(ms(7), "u1.up", true)
	tr.NetemGEState(ms(8), "u1.up", false)
	tr.RateReport(ms(100), 0, 0.1, 40, 1e6)
	tr.RateTarget(ms(100), 0, 2e6, 1.8e6, "backoff-loss")
	tr.RateTarget(ms(200), 0, 2.5e6, 2.3e6, "increase")
	tr.NackSent(ms(120), 0, 1, 4)
	tr.NackAnswered(ms(130), 0, 3, 1)
	tr.ParitySent(ms(140), 0, 1100)
	tr.Repair(ms(150), 0, 1, "rtx", 2)
	tr.Repair(ms(155), 0, 1, "fec", 1)
	tr.Expire(ms(160), 0, 1, 1)
	tr.FrameSent(ms(300), 0, 9000)
	tr.FrameThinned(ms(310), 0)
	tr.FrameDecoded(ms(1400), 0, 1, 80, true)
	tr.FrameDecoded(ms(2400), 0, 1, 300, false)
	tr.FrameUndecodable(ms(2500), 0, 1)
	tr.FrameTimeout(ms(2600), 0, 1, 2)

	sum, err := Summarize(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 23 {
		t.Fatalf("Events = %d, want 23", sum.Events)
	}
	if sum.FirstMs != 1 || sum.LastMs != 2600 {
		t.Fatalf("span [%v, %v]", sum.FirstMs, sum.LastMs)
	}
	lk := sum.Links["u1.up"]
	if lk == nil {
		t.Fatal("no u1.up link")
	}
	if lk.Enqueued != 2 || lk.EnqueuedBytes != 1500 || lk.Delivered != 1 ||
		lk.DropBurst != 1 || lk.DropQueue != 1 || lk.DropLoss != 1 ||
		lk.MaxQueueBytes != 1500 || lk.GEBadEntries != 1 {
		t.Fatalf("link summary %+v", *lk)
	}
	sd := sum.Senders[0]
	if sd == nil {
		t.Fatal("no sender 0")
	}
	if sd.Reports != 1 || sd.TargetUpdates != 2 || sd.TargetFirstBps != 2e6 ||
		sd.TargetLastBps != 2.5e6 || sd.TargetMinBps != 2e6 || sd.TargetMaxBps != 2.5e6 ||
		sd.RtxPackets != 3 || sd.CacheMisses != 1 || sd.ParityPackets != 1 ||
		sd.FramesSent != 1 || sd.FramesThinned != 1 {
		t.Fatalf("sender summary %+v", *sd)
	}
	if sd.Reasons["backoff-loss"] != 1 || sd.Reasons["increase"] != 1 {
		t.Fatalf("reasons %v", sd.Reasons)
	}
	st := sum.Streams[StreamKey{0, 1}]
	if st == nil {
		t.Fatal("no stream 0->1")
	}
	if st.FramesDecoded != 2 || st.FramesLive != 1 || st.FramesUndecodable != 1 ||
		st.FrameTimeouts != 2 || st.RepairedRtx != 2 || st.RepairedFec != 1 ||
		st.Unrepaired != 1 || st.NacksSent != 1 || st.NackSeqs != 4 {
		t.Fatalf("stream summary %+v", *st)
	}
	if want := []SecondCount{{1, 1}, {2, 1}}; !reflect.DeepEqual(st.DecodedPerSec, want) {
		t.Fatalf("decoded/s %v", st.DecodedPerSec)
	}

	sent, thinned, decoded, undec, rep, unrep := sum.UserFrameCounts(1)
	if sent != 0 || thinned != 0 || decoded != 2 || undec != 1 || rep != 3 || unrep != 1 {
		t.Fatalf("UserFrameCounts(1) = %d %d %d %d %d %d", sent, thinned, decoded, undec, rep, unrep)
	}

	var rpt bytes.Buffer
	if err := sum.WriteReport(&rpt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"23 events", "u1.up", "u0", "u0->u1", "decoded/s: 1:1 2:1", "backoff-loss:1"} {
		if !strings.Contains(rpt.String(), want) {
			t.Errorf("report missing %q:\n%s", want, rpt.String())
		}
	}
}

func TestSummarizeRejectsBadLines(t *testing.T) {
	in := `{"t_ms":1,"cat":"netem","ev":"deliver","link":"l","size":1}
{"t_ms":2,"cat":"bogus","ev":"deliver"}
`
	if _, err := Summarize(strings.NewReader(in)); err == nil {
		t.Fatal("bad line accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks line number: %v", err)
	}
}
