package fleet

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"telepresence/internal/core"
)

// recordingMonitor captures every published event; safe for the engine's
// concurrent publishers.
type recordingMonitor struct {
	mu     sync.Mutex
	events []MonitorEvent
}

func (m *recordingMonitor) Event(ev MonitorEvent) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

// byKind returns the captured events of one kind, in capture order.
func (m *recordingMonitor) byKind(k EventKind) []MonitorEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []MonitorEvent
	for _, ev := range m.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// TestMonitorLifecycleEvents: a clean run publishes the full event
// skeleton — one RunStarted with the unit universe, one Dispatched /
// AttemptStarted / UnitDone / RowsEmitted per unit, and a final RunDone —
// with unit indices and keys that match dispatch order.
func TestMonitorLifecycleEvents(t *testing.T) {
	mon := &recordingMonitor{}
	exp := testExperiment("steady", 4, false)
	res, _, err := runRows([]core.Experiment{exp}, core.Quick(1), Config{Workers: 2, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if m := NewManifest(core.Quick(1), 2, 0, res); m.Rows != 8 {
		t.Fatalf("rows = %d, want 8", m.Rows)
	}

	started := mon.byKind(EventRunStarted)
	if len(started) != 1 || started[0].Units != 4 || started[0].Unit != -1 {
		t.Errorf("RunStarted = %+v, want one event with Units=4 Unit=-1", started)
	}
	for _, tc := range []struct {
		kind EventKind
		name string
	}{
		{EventUnitDispatched, "Dispatched"},
		{EventAttemptStarted, "AttemptStarted"},
		{EventUnitDone, "UnitDone"},
		{EventRowsEmitted, "RowsEmitted"},
	} {
		evs := mon.byKind(tc.kind)
		if len(evs) != 4 {
			t.Fatalf("%d %s events, want 4", len(evs), tc.name)
		}
		seen := map[int]bool{}
		for _, ev := range evs {
			if !strings.HasPrefix(ev.Key, "grid/steady/rep=") {
				t.Errorf("%s key = %q", tc.name, ev.Key)
			}
			if ev.Unit < 0 || ev.Unit > 3 || seen[ev.Unit] {
				t.Errorf("%s unit = %d (duplicate or out of range)", tc.name, ev.Unit)
			}
			seen[ev.Unit] = true
		}
	}
	for _, ev := range mon.byKind(EventUnitDone) {
		if ev.Err != nil || ev.Rows != 2 || ev.Attempt != 1 || ev.Wall < 0 {
			t.Errorf("UnitDone = %+v, want clean 2-row single-attempt outcome", ev)
		}
	}
	// RowsEmitted follows sink order: unit indices ascending.
	emitted := mon.byKind(EventRowsEmitted)
	for i, ev := range emitted {
		if ev.Unit != i {
			t.Errorf("RowsEmitted[%d].Unit = %d, want %d (ordered emission)", i, ev.Unit, i)
		}
	}
	done := mon.byKind(EventRunDone)
	if len(done) != 1 || done[0].Err != nil {
		t.Errorf("RunDone = %+v, want exactly one clean event", done)
	}
	mon.mu.Lock()
	last := mon.events[len(mon.events)-1]
	mon.mu.Unlock()
	if last.Kind != EventRunDone {
		t.Errorf("last event kind = %d, want EventRunDone", last.Kind)
	}
	if len(mon.byKind(EventInterrupted)) != 0 {
		t.Error("clean run published EventInterrupted")
	}
}

// TestMonitorPanicEvents: a panicking unit starts one attempt, and its
// UnitDone carries the failure with the recovered stack.
func TestMonitorPanicEvents(t *testing.T) {
	mon := &recordingMonitor{}
	exp := testExperiment("crashy", 2, true)
	if _, _, err := runRows([]core.Experiment{exp}, core.Quick(1), Config{Workers: 2, Monitor: mon}); err == nil {
		t.Fatal("panicking reps returned no error")
	}
	if got := len(mon.byKind(EventAttemptStarted)); got != 2 {
		t.Errorf("%d AttemptStarted events, want 2 (one per rep)", got)
	}
	dones := mon.byKind(EventUnitDone)
	if len(dones) != 2 {
		t.Fatalf("%d UnitDone events, want 2", len(dones))
	}
	for _, ev := range dones {
		if ev.Attempt != 1 || ev.Err == nil || !strings.Contains(ev.Stack, "goroutine") {
			t.Errorf("UnitDone = attempt %d err %v stack %d bytes", ev.Attempt, ev.Err, len(ev.Stack))
		}
	}
}

// TestMonitorTimeout: a watchdog-abandoned unit's UnitDone carries
// ErrUnitTimeout and no stack.
func TestMonitorTimeout(t *testing.T) {
	mon := &recordingMonitor{}
	hang := core.Experiment{
		Name: "hang", Desc: "test", Row: 0,
		Reps: func(core.Options) int { return 1 },
		Run: func(core.Options, int) ([]core.Row, error) {
			time.Sleep(10 * time.Second)
			return []core.Row{0}, nil
		},
	}
	cfg := Config{Workers: 1, Monitor: mon, CellTimeout: 30 * time.Millisecond}
	if _, _, err := runRows([]core.Experiment{hang}, core.Quick(1), cfg); !errors.Is(err, ErrUnitTimeout) {
		t.Fatalf("err = %v, want ErrUnitTimeout", err)
	}
	dones := mon.byKind(EventUnitDone)
	if len(dones) != 1 || !errors.Is(dones[0].Err, ErrUnitTimeout) || dones[0].Stack != "" || dones[0].Attempt != 1 {
		t.Errorf("UnitDone = %+v, want one timeout on attempt 1 with no stack", dones)
	}
}

// TestMonitorJournalHit: a resumed run publishes JournalHit (not
// Dispatched/AttemptStarted) for every journaled unit, with the journaled
// row count and attempt 1.
func TestMonitorJournalHit(t *testing.T) {
	spec := testSweepSpec()
	opts := core.Quick(7)
	dir := t.TempDir()

	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := streamSweepJSONL(t, spec, opts, Config{Workers: 4, Checkpoint: j}); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	mon := &recordingMonitor{}
	cfg := Config{Workers: 4, Checkpoint: j2, Resume: true, Monitor: mon}
	if _, _, err := streamSweepJSONL(t, spec, opts, cfg); err != nil {
		t.Fatal(err)
	}

	hits := mon.byKind(EventJournalHit)
	if len(hits) != 12 {
		t.Fatalf("%d JournalHit events, want 12 (every cell journaled)", len(hits))
	}
	for _, ev := range hits {
		if ev.Rows != 1 || ev.Attempt != 1 || !strings.HasPrefix(ev.Key, "grid/synth-sweep/") {
			t.Errorf("JournalHit = %+v", ev)
		}
	}
	if got := len(mon.byKind(EventUnitDispatched)); got != 0 {
		t.Errorf("%d Dispatched events on a fully journaled run, want 0", got)
	}
	if got := len(mon.byKind(EventAttemptStarted)); got != 0 {
		t.Errorf("%d AttemptStarted events on a fully journaled run, want 0", got)
	}
	if got := len(mon.byKind(EventRowsEmitted)); got != 12 {
		t.Errorf("%d RowsEmitted events, want 12 (replayed entries still emit)", got)
	}
}

// TestMonitorInterrupted: an interrupt closed before dispatch publishes
// EventInterrupted, and every never-started unit's UnitDone carries
// ErrInterrupted (the resumable-skip contract).
func TestMonitorInterrupted(t *testing.T) {
	mon := &recordingMonitor{}
	interrupt := make(chan struct{})
	close(interrupt)
	exp := testExperiment("skippy", 3, false)
	_, err := RunStream([]core.Experiment{exp}, core.Quick(1),
		Config{Workers: 2, Monitor: mon, Interrupt: interrupt},
		func(core.Experiment) (Sink, error) { return NewJSONLSink(&bytes.Buffer{}), nil })
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if got := len(mon.byKind(EventInterrupted)); got != 1 {
		t.Fatalf("%d EventInterrupted, want 1", got)
	}
	dones := mon.byKind(EventUnitDone)
	if len(dones) != 3 {
		t.Fatalf("%d UnitDone events, want 3 (skipped units still report)", len(dones))
	}
	for _, ev := range dones {
		if !errors.Is(ev.Err, ErrInterrupted) {
			t.Errorf("skipped unit %q err = %v, want ErrInterrupted", ev.Key, ev.Err)
		}
	}
	if last := mon.byKind(EventRunDone); len(last) != 1 {
		t.Errorf("%d RunDone events, want 1", len(last))
	}
}

// TestMonitorWindowGauges: window events report non-negative occupancy
// bounded by the configured window.
func TestMonitorWindowGauges(t *testing.T) {
	mon := &recordingMonitor{}
	spec := testSweepSpec()
	cfg := Config{Workers: 4, Window: 6, Monitor: mon}
	if _, _, err := streamSweepJSONL(t, spec, core.Quick(7), cfg); err != nil {
		t.Fatal(err)
	}
	windows := mon.byKind(EventWindow)
	if len(windows) == 0 {
		t.Fatal("no EventWindow published")
	}
	for _, ev := range windows {
		if ev.InFlight < 0 || ev.Buffered < 0 || ev.InFlight+ev.Buffered > 6 {
			t.Errorf("window gauges InFlight=%d Buffered=%d exceed window 6", ev.InFlight, ev.Buffered)
		}
	}
}

// TestNilMonitorNoAllocsOnDispatch is the inertness pin: with no monitor
// attached, publishing an event — what the dispatch path does per unit —
// allocates nothing.
func TestNilMonitorNoAllocsOnDispatch(t *testing.T) {
	cfg := Config{}
	key := "grid/synth-sweep/a=1"
	allocs := testing.AllocsPerRun(1000, func() {
		cfg.publish(MonitorEvent{Kind: EventUnitDispatched, Unit: 3, Key: key})
		cfg.publish(MonitorEvent{Kind: EventUnitDone, Unit: 3, Key: key, Attempt: 1, Rows: 2})
	})
	if allocs != 0 {
		t.Errorf("nil-monitor publish allocates %.1f per unit, want 0", allocs)
	}
}

// TestMonitoredRunBytesIdentical is observe-never-steer: attaching a
// monitor changes no emitted byte at any worker count.
func TestMonitoredRunBytesIdentical(t *testing.T) {
	spec := testSweepSpec()
	opts := core.Quick(7)
	bare, _, err := streamSweepJSONL(t, spec, opts, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		mon := &recordingMonitor{}
		got, _, err := streamSweepJSONL(t, spec, opts, Config{Workers: workers, Monitor: mon})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(bare, got) {
			t.Errorf("workers=%d monitored bytes diverge from bare run", workers)
		}
		if len(mon.byKind(EventRowsEmitted)) != 12 {
			t.Errorf("workers=%d monitor missed emissions", workers)
		}
	}
}
