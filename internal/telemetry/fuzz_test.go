package telemetry

import (
	"bytes"
	"runtime"
	"testing"

	"telepresence/internal/simtime"
)

// FuzzSummarize feeds arbitrary bytes to ValidateLine, line by line, and to
// Summarize. Neither may panic, and Summarize must allocate in proportion
// to its input. The lines ValidateLine accepts, read as a trace, must
// summarise without error into one event each: a line the schema accepts
// is data Summarize can reduce.
func FuzzSummarize(f *testing.F) {
	var trace bytes.Buffer
	tr := NewTracer(&trace)
	emitAll(tr, simtime.Time(3*simtime.Millisecond))
	tr.FrameDecoded(simtime.Time(2400*simtime.Millisecond), 0, 1, 300, false)
	f.Add(trace.Bytes())
	lines := bytes.SplitAfter(trace.Bytes(), []byte{'\n'})
	for _, l := range lines[:3] {
		f.Add(l)
	}
	f.Add([]byte(`{"t_ms":-1500,"cat":"vca","ev":"frame_decoded","sender":0,"receiver":1,"lat_ms":1,"live":true}`))
	f.Add([]byte(`{"t_ms":1e12,"cat":"vca","ev":"frame_decoded","sender":0,"receiver":1,"lat_ms":1,"live":true}`))
	f.Add([]byte(`{"t_ms":1,"cat":"netem","ev":"deliver","link":"l","size":1.5}`))
	f.Add([]byte(`{"t_ms":1e400,"cat":"netem","ev":"deliver","link":"l","size":1}`))
	f.Add([]byte("{\"t_ms\":1,\"cat\":\"netem\",\"ev\":\"deliver\",\"link\":\"l\",\"size\":1}\r\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = Summarize(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The line scanner's 64 KiB buffer and the summary's maps are the
		// constant; decoding costs a bounded multiple of each line.
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(data)); n > limit {
			t.Fatalf("Summarize of %d bytes allocated %d bytes, want <= %d", len(data), n, limit)
		}

		var accepted bytes.Buffer
		var n int64
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if ValidateLine(line) == nil {
				accepted.Write(line)
				accepted.WriteByte('\n')
				n++
			}
		}
		sum, err := Summarize(&accepted)
		if err != nil {
			t.Fatalf("lines ValidateLine accepts do not summarise: %v", err)
		}
		if sum.Events != n {
			t.Fatalf("%d accepted lines summarised as %d events", n, sum.Events)
		}
	})
}
