package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"telepresence/internal/core"
)

// testSweepSpec is the 12-cell grid the streaming and resume tests share.
func testSweepSpec() SweepSpec {
	return SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{1, 2, 3, 4, 5, 6}},
		{Name: "b", Values: []float64{10, 20}},
	}}
}

// streamSweepJSONL runs the sweep through the streaming path into one
// JSONL buffer.
func streamSweepJSONL(t *testing.T, spec SweepSpec, opts core.Options, cfg Config) ([]byte, []UnitResult, error) {
	t.Helper()
	var buf bytes.Buffer
	results, err := RunSweepStream(spec, opts, cfg, NewJSONLSink(&buf))
	return buf.Bytes(), results, err
}

// TestStreamWindowBoundsBuffer is the bounded-memory pin: the reorder
// buffer's high-water mark never exceeds the window of windowPerWorker
// units per worker, no matter how large the grid is or how out-of-order
// workers finish.
func TestStreamWindowBoundsBuffer(t *testing.T) {
	// 60 units finishing in adversarial (reverse) order.
	var units []unit
	for i := 0; i < 60; i++ {
		i := i
		units = append(units, unit{
			key: unitKey("synth", fmt.Sprintf("rep=%d", i)),
			run: func() ([]core.Row, error) {
				time.Sleep(time.Duration(3-i%4) * time.Millisecond)
				return []core.Row{i}, nil
			},
		})
	}
	const workers = 2
	const window = windowPerWorker * workers
	var mu sync.Mutex
	var maxBuffered int
	cfg := Config{
		Workers:       workers,
		onMaxBuffered: func(n int) { mu.Lock(); maxBuffered = n; mu.Unlock() },
	}
	next := 0
	if err := runOrdered(units, "s", cfg, func(i int, o unitOutcome) error {
		if i != next {
			t.Fatalf("emitted unit %d before %d", i, next)
		}
		next++
		return o.err
	}); err != nil {
		t.Fatal(err)
	}
	if next != 60 {
		t.Fatalf("emitted %d units, want 60", next)
	}
	if maxBuffered == 0 || maxBuffered > window {
		t.Errorf("reorder buffer high-water mark %d, want 1..%d (memory must not scale with run size)",
			maxBuffered, window)
	}
}

// trippingSink wraps a sink and closes interrupt after the Nth write,
// simulating a kill arriving mid-run.
type trippingSink struct {
	Sink
	after     int
	writes    int
	interrupt chan struct{}
	once      sync.Once
}

func (s *trippingSink) Write(row core.Row) error {
	err := s.Sink.Write(row)
	s.writes++
	if s.writes >= s.after {
		s.once.Do(func() { close(s.interrupt) })
	}
	return err
}

// TestKillAndResume is the acceptance pin: a sweep killed mid-run, then
// resumed from its journal, reassembles byte-identical output to an
// uninterrupted run — at worker counts 1 and 8. The killed run and the
// resumes write through different Journals, as separate processes would,
// so the last resume reads two segments.
func TestKillAndResume(t *testing.T) {
	spec := testSweepSpec()
	opts := core.Quick(13)
	clean, _, err := streamSweepJSONL(t, spec, opts, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	killed, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Run 1: kill after the 3rd row reaches the sink. One worker's window
	// of 4 keeps at most 4 cells dispatched past the last emitted one, so
	// the drain skips some of the 12.
	interrupt := make(chan struct{})
	var buf bytes.Buffer
	sink := &trippingSink{Sink: NewJSONLSink(&buf), after: 3, interrupt: interrupt}
	cfg := Config{
		Workers:    1,
		Checkpoint: killed,
		Interrupt:  interrupt,
	}
	results, runErr := RunSweepStream(spec, opts, cfg, sink)
	if !errors.Is(runErr, ErrInterrupted) {
		t.Fatalf("interrupted run error = %v, want ErrInterrupted", runErr)
	}
	skipped := 0
	for _, r := range results {
		if errors.Is(r.Err, ErrInterrupted) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("kill skipped no cells; interrupt arrived too late to test resume")
	}
	if killed.Len() == 0 {
		t.Fatal("no cells journaled before the kill")
	}
	m := NewManifest(opts, 1, time.Second, results)
	if !m.Interrupted || len(m.Failures) != 0 {
		t.Errorf("interrupted manifest: interrupted=%v failures=%+v, want true/none", m.Interrupted, m.Failures)
	}

	// Runs 2..: resume from the journal at both worker counts, through one
	// Journal, so the second resume must see the first one's writes; bytes
	// must match the uninterrupted run exactly.
	journal, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		got, results, err := streamSweepJSONL(t, spec, opts, Config{
			Workers: workers, Checkpoint: journal, Resume: true,
		})
		if err != nil {
			t.Fatalf("resume workers=%d: %v", workers, err)
		}
		if !bytes.Equal(clean, got) {
			t.Errorf("resume workers=%d bytes diverge from clean run\nclean:  %s\nresume: %s", workers, clean, got)
		}
		resumed := 0
		for _, r := range results {
			if r.Resumed {
				resumed++
			}
		}
		if resumed == 0 {
			t.Errorf("resume workers=%d served no cells from the journal", workers)
		}
		m := NewManifest(opts, workers, time.Second, results)
		if m.Resumed != resumed || m.Interrupted {
			t.Errorf("resumed manifest: %+v", m)
		}
	}
	// After a completed resume the journal holds every cell; a further
	// resume through a fresh Journal reads both segments, runs nothing live
	// and still reproduces the bytes.
	if journal.Len() != len(spec.Cells()) {
		t.Fatalf("journal has %d entries after full resume, want %d", journal.Len(), len(spec.Cells()))
	}
	if segs := segments(t, dir); len(segs) != 2 {
		t.Fatalf("journal segments = %v, want the killed run's and the resumes'", segs)
	}
	fresh, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, results, err := streamSweepJSONL(t, spec, opts, Config{Workers: 4, Checkpoint: fresh, Resume: true})
	if err != nil || !bytes.Equal(clean, got) {
		t.Errorf("fully-journaled resume: err=%v, bytes equal=%v", err, bytes.Equal(clean, got))
	}
	for _, r := range results {
		if !r.Resumed {
			t.Fatalf("cell %s ran live despite a full journal", r.Label)
		}
	}
}

// failingSink wraps a sink and fails every write from the Nth on.
type failingSink struct {
	Sink
	after  int
	writes int
}

var errSinkWrite = errors.New("synthetic sink write error")

func (s *failingSink) Write(row core.Row) error {
	s.writes++
	if s.writes >= s.after {
		return errSinkWrite
	}
	return s.Sink.Write(row)
}

// TestSinkErrorThenResume: a sink-write error aborts the run, but
// completed cells are already journaled, so a resume recovers them
// without re-running and replays byte-identical output.
func TestSinkErrorThenResume(t *testing.T) {
	spec := testSweepSpec()
	opts := core.Quick(5)
	clean, _, err := streamSweepJSONL(t, spec, opts, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	journal, _ := OpenJournal(t.TempDir())
	var buf bytes.Buffer
	sink := &failingSink{Sink: NewJSONLSink(&buf), after: 3}
	results, runErr := RunSweepStream(spec, opts, Config{Workers: 2, Checkpoint: journal}, sink)
	if !errors.Is(runErr, errSinkWrite) {
		t.Fatalf("run error = %v, want the sink's write error", runErr)
	}
	if sink.writes != 3 {
		t.Errorf("sink saw %d writes, want 3 (the emit error aborts the run)", sink.writes)
	}
	skipped := 0
	for _, r := range results {
		if errors.Is(r.Err, ErrInterrupted) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("no cell left unemitted after the emit error")
	}
	if journal.Len() < 3 {
		t.Fatalf("%d cells journaled, want at least the 3 that reached the sink", journal.Len())
	}
	got, results, err := streamSweepJSONL(t, spec, opts, Config{
		Workers: 2, Checkpoint: journal, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume after sink failure: %v", err)
	}
	if !bytes.Equal(clean, got) {
		t.Errorf("post-sink-failure resume diverges from clean\nclean:  %s\nresume: %s", clean, got)
	}
	resumed := 0
	for _, r := range results {
		if r.Resumed {
			resumed++
		}
	}
	if resumed == 0 {
		t.Error("resume served nothing from the journal")
	}
}

// TestRunStreamExperiments: the experiment streaming path opens one sink
// per experiment, streams rep rows in order, isolates failures as gaps,
// and reports counts in its results.
func TestRunStreamExperiments(t *testing.T) {
	good := testExperiment("s-good", 3, false)
	half := core.Experiment{ // rep 1 of 3 fails: reps 0 and 2 still stream
		Name: "s-half", Desc: "test", Row: 0,
		Reps: func(core.Options) int { return 3 },
		Run: func(_ core.Options, rep int) ([]core.Row, error) {
			if rep == 1 {
				return nil, errors.New("synthetic rep failure")
			}
			return []core.Row{rep * 10, rep*10 + 1}, nil
		},
	}
	sinks := map[string]*MemorySink{}
	results, err := RunStream([]core.Experiment{good, half}, core.Quick(1), Config{Workers: 4},
		func(e core.Experiment) (Sink, error) {
			s := NewMemorySink()
			sinks[e.Name] = s
			return s, nil
		})
	if err == nil {
		t.Fatal("failing rep produced no joined error")
	}
	man := NewManifest(core.Quick(1), 4, time.Second, results)
	if len(man.Sections) != 2 || man.Sections[0].Rows != 6 || man.Sections[1].Rows != 4 {
		t.Errorf("sections = %+v, want s-good with 6 rows and s-half with 4", man.Sections)
	}
	if len(sinks["s-good"].Rows) != 6 {
		t.Errorf("good sink rows = %d, want 6", len(sinks["s-good"].Rows))
	}
	// The failed rep leaves a gap: reps 0 and 2 present, rep 1 absent.
	wantHalf := []core.Row{0, 1, 20, 21}
	gotHalf := sinks["s-half"].Rows
	if fmt.Sprint(gotHalf) != fmt.Sprint(wantHalf) {
		t.Errorf("half sink rows = %v, want %v (gap where rep 1 failed)", gotHalf, wantHalf)
	}
	for i, r := range results {
		if failed := r.Err != nil; failed != (r.Key == "grid/s-half/rep=1") {
			t.Errorf("unit %d (%s): err = %v", i, r.Key, r.Err)
		}
	}
	if len(man.Failures) != 1 || man.Failures[0].Unit != "grid/s-half/rep=1" {
		t.Errorf("manifest failures = %+v", man.Failures)
	}
}

// TestEntryReplayByteIdentical: replaying a journal entry through the
// JSONL and CSV sinks yields exactly the bytes live writes would.
func TestEntryReplayByteIdentical(t *testing.T) {
	type row struct {
		Label string
		V     float64
		N     int
	}
	rows := []core.Row{row{"x", 1.5, 2}, row{"y", -0.25, 7}}
	e, err := encodeEntry("u", "s", rows)
	if err != nil {
		t.Fatal(err)
	}

	var liveJ, replayJ bytes.Buffer
	live := NewJSONLSink(&liveJ)
	for _, r := range rows {
		if err := live.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := NewJSONLSink(&replayJ).(EntrySink).WriteEntry(e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJ.Bytes(), replayJ.Bytes()) {
		t.Errorf("JSONL replay diverges\nlive:   %q\nreplay: %q", liveJ.Bytes(), replayJ.Bytes())
	}

	var liveC, replayC bytes.Buffer
	cs := NewCSVSink(&liveC, row{})
	for _, r := range rows {
		if err := cs.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	rs := NewCSVSink(&replayC, row{}).(EntrySink)
	if err := rs.WriteEntry(e); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveC.Bytes(), replayC.Bytes()) {
		t.Errorf("CSV replay diverges\nlive:   %q\nreplay: %q", liveC.Bytes(), replayC.Bytes())
	}
}

// entryCountingSink counts a sink's live row writes and entry writes.
type entryCountingSink struct {
	EntrySink
	rows, entries int
}

func (s *entryCountingSink) Write(row core.Row) error { s.rows++; return s.EntrySink.Write(row) }

func (s *entryCountingSink) WriteEntry(e *JournalEntry) error {
	s.entries++
	return s.EntrySink.WriteEntry(e)
}

// TestCheckpointedLiveUnitsEncodeOnce: under a checkpoint, a live unit's
// rows reach an EntrySink as the entry just journaled, not encoded again
// row by row; the unit is still live, not resumed, and the bytes are the
// uncheckpointed run's.
func TestCheckpointedLiveUnitsEncodeOnce(t *testing.T) {
	spec := testSweepSpec()
	opts := core.Quick(11)
	clean, _, err := streamSweepJSONL(t, spec, opts, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := OpenJournal(t.TempDir())
	var buf bytes.Buffer
	sink := &entryCountingSink{EntrySink: NewJSONLSink(&buf).(EntrySink)}
	results, err := RunSweepStream(spec, opts, Config{Workers: 2, Checkpoint: j}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, buf.Bytes()) {
		t.Errorf("checkpointed bytes diverge\nclean: %s\ngot:   %s", clean, buf.Bytes())
	}
	if sink.rows != 0 || sink.entries != len(spec.Cells()) {
		t.Errorf("sink saw %d row writes and %d entries, want 0 and %d", sink.rows, sink.entries, len(spec.Cells()))
	}
	for _, r := range results {
		if r.Resumed || r.Attempts != 1 {
			t.Errorf("%s: resumed=%v attempts=%d, want a live unit", r.Label, r.Resumed, r.Attempts)
		}
	}
}
