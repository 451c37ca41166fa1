package fleetobs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"telepresence/internal/fleet"
)

// fakeClock drives a RunState's injectable clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time                 { return c.t }
func (c *fakeClock) advance(d time.Duration)        { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                      { return &fakeClock{t: time.Unix(1700000000, 0)} }
func withClock(s *RunState, c *fakeClock) *RunState { s.now = c.now; return s }

// TestEWMARate: a steady event stream converges near its true rate.
func TestEWMARate(t *testing.T) {
	c := newFakeClock()
	e := ewma{tau: 10 * time.Second, primed: true, last: c.t}
	// 10 rows per 100ms = 100 rows/sec for 30 seconds.
	for i := 0; i < 300; i++ {
		c.advance(100 * time.Millisecond)
		e.add(10, c.t)
	}
	if got := e.value(c.t); got < 90 || got > 110 {
		t.Errorf("steady 100/s stream: ewma = %v", got)
	}
	// A burst inside the minimum interval must accumulate, not spike.
	e2 := ewma{tau: 10 * time.Second, primed: true, last: c.t}
	for i := 0; i < 100; i++ {
		e2.add(1, c.t) // zero elapsed time
	}
	c.advance(time.Second)
	e2.add(0, c.t)
	if got := e2.value(c.t); got > 200 {
		t.Errorf("burst ewma = %v, want near 100 (accumulated over 1s)", got)
	}
}

// TestRunStateLifecycle drives a synthetic event sequence and checks the
// snapshot at each stage.
func TestRunStateLifecycle(t *testing.T) {
	c := newFakeClock()
	s := withClock(NewRunState("sweep-x", "sweep"), c)
	if got := s.Snapshot(false); got.State != RunPending || got.ID != "sweep-x" {
		t.Fatalf("initial snapshot = %+v", got)
	}

	s.Event(fleet.MonitorEvent{Kind: fleet.EventRunStarted, Unit: -1, Units: 3})
	s.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDispatched, Unit: 0, Key: "sweep/x/a=1"})
	s.Event(fleet.MonitorEvent{Kind: fleet.EventAttemptStarted, Unit: 0, Key: "sweep/x/a=1", Attempt: 1})
	snap := s.Snapshot(true)
	if snap.State != RunRunning || snap.Units != 3 || snap.Dispatched != 1 {
		t.Errorf("running snapshot = %+v", snap)
	}
	if len(snap.UnitViews) != 3 || snap.UnitViews[0].Status != StatusRunning ||
		snap.UnitViews[1].Status != StatusPending {
		t.Errorf("unit views = %+v", snap.UnitViews)
	}

	// Unit 0 panics.
	s.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDone, Unit: 0, Key: "sweep/x/a=1",
		Attempt: 1, Err: errors.New("fleet: sweep/x/a=1 failed: panic: boom"),
		Stack: "goroutine 1 [running]"})
	snap = s.Snapshot(true)
	if snap.Failed != 1 || snap.Panics != 1 || snap.Timeouts != 0 || snap.FailuresTotal != 1 {
		t.Errorf("after panic: %+v", snap)
	}
	if len(snap.Failures) != 1 || snap.Failures[0].Stack == "" || snap.Failures[0].Attempts != 1 {
		t.Errorf("failure ring = %+v", snap.Failures)
	}

	// Unit 1 succeeds; unit 2 resumes from the journal; both emit.
	s.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDispatched, Unit: 1, Key: "sweep/x/a=2"})
	s.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDone, Unit: 1, Key: "sweep/x/a=2",
		Attempt: 1, Rows: 2, Wall: 5 * time.Millisecond})
	s.Event(fleet.MonitorEvent{Kind: fleet.EventJournalHit, Unit: 2, Key: "sweep/x/a=3",
		Attempt: 1, Rows: 2})
	c.advance(time.Second)
	s.Event(fleet.MonitorEvent{Kind: fleet.EventRowsEmitted, Unit: 1, Key: "sweep/x/a=2", Rows: 2})
	s.Event(fleet.MonitorEvent{Kind: fleet.EventRowsEmitted, Unit: 2, Key: "sweep/x/a=3", Rows: 2})
	s.Event(fleet.MonitorEvent{Kind: fleet.EventRunDone, Unit: -1})
	snap = s.Snapshot(true)
	if snap.State != RunFailed { // one unit failed terminally
		t.Errorf("final state = %q, want failed", snap.State)
	}
	if snap.Rows != 4 || snap.Done != 1 || snap.JournalHits != 1 {
		t.Errorf("final counters = %+v", snap)
	}
	if snap.UnitViews[2].Status != StatusResumed || snap.UnitViews[2].Rows != 2 {
		t.Errorf("resumed unit view = %+v", snap.UnitViews[2])
	}
	if snap.UnitViews[1].WallMs != 5 {
		t.Errorf("unit 1 wall = %v ms, want 5", snap.UnitViews[1].WallMs)
	}
}

// TestRunStateCountsTimeouts: a watchdog timeout is counted from its
// UnitDone, apart from panics, and an interrupted skip is neither.
func TestRunStateCountsTimeouts(t *testing.T) {
	s := NewRunState("sweep-t", "sweep")
	s.Event(fleet.MonitorEvent{Kind: fleet.EventRunStarted, Unit: -1, Units: 2})
	s.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDone, Unit: 0, Key: "grid/t/a=1", Attempt: 1,
		Err: fmt.Errorf("fleet: grid/t/a=1 failed: %w", fleet.ErrUnitTimeout)})
	s.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDone, Unit: 1, Key: "grid/t/a=2",
		Err: fleet.ErrInterrupted})
	snap := s.Snapshot(false)
	if snap.Timeouts != 1 || snap.Panics != 0 || snap.Failed != 1 || snap.Skipped != 1 {
		t.Errorf("snapshot = %+v, want 1 timeout, 0 panics, 1 failed, 1 skipped", snap)
	}
}

// TestRunStateInterruptAndFinish: the drain path reports interrupted
// immediately (live, before the CLI finalizes) and Finish attaches the
// resume hint and closes the row log.
func TestRunStateInterruptAndFinish(t *testing.T) {
	s := NewRunState("sweep-y", "sweep")
	s.Event(fleet.MonitorEvent{Kind: fleet.EventRunStarted, Unit: -1, Units: 2})
	s.Event(fleet.MonitorEvent{Kind: fleet.EventInterrupted, Unit: -1})
	if got := s.Snapshot(false); got.State != RunInterrupted || !got.Interrupted {
		t.Fatalf("live interrupt snapshot = %+v", got)
	}
	s.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDone, Unit: 1, Key: "sweep/y/a=2",
		Err: fleet.ErrInterrupted})
	s.Event(fleet.MonitorEvent{Kind: fleet.EventRunDone, Unit: -1, Err: fleet.ErrInterrupted})
	s.Finish(fleet.ErrInterrupted, "re-run with -checkpoint dir -resume")
	snap := s.Snapshot(true)
	if snap.State != RunInterrupted || snap.ResumeHint == "" {
		t.Errorf("finished snapshot = %+v", snap)
	}
	if snap.Skipped != 1 || snap.FailuresTotal != 0 {
		t.Errorf("skipped unit misccounted: %+v", snap)
	}
	if snap.UnitViews[1].Status != StatusSkipped {
		t.Errorf("unit view = %+v", snap.UnitViews[1])
	}
	// Finish closed the log: a reader drains and sees closed.
	if _, _, closed, _ := s.RowLog().read(0); !closed {
		t.Error("row log not closed by Finish")
	}
}

// TestFailureRingBounded: the ring keeps the newest failureRingCap
// entries while FailuresTotal counts all of them.
func TestFailureRingBounded(t *testing.T) {
	s := NewRunState("r", "run")
	n := failureRingCap + 10
	s.Event(fleet.MonitorEvent{Kind: fleet.EventRunStarted, Unit: -1, Units: n})
	for i := 0; i < n; i++ {
		s.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDone, Unit: i,
			Key: "run/x/rep" + string(rune('A'+i%26)), Attempt: 1, Err: errors.New("fail")})
	}
	snap := s.Snapshot(false)
	if snap.FailuresTotal != n {
		t.Errorf("FailuresTotal = %d, want %d", snap.FailuresTotal, n)
	}
	if len(snap.Failures) != failureRingCap {
		t.Errorf("ring holds %d, want %d", len(snap.Failures), failureRingCap)
	}
}

// TestRowLog: line assembly across partial writes, ring eviction with
// stable sequence numbers, and close flushing the final fragment.
func TestRowLog(t *testing.T) {
	l := NewRowLog(3)
	l.Write([]byte("{\"a\":1}\n{\"a\":"))
	l.Write([]byte("2}\n"))
	lines, next, closed, _ := l.read(0)
	if len(lines) != 2 || string(lines[0]) != `{"a":1}` || string(lines[1]) != `{"a":2}` || next != 2 || closed {
		t.Fatalf("read = %q next=%d closed=%v", lines, next, closed)
	}
	l.Write([]byte("{\"a\":3}\n{\"a\":4}\n")) // overflows cap 3: line 0 evicted
	lines, next, _, _ = l.read(0)
	if len(lines) != 3 || string(lines[0]) != `{"a":2}` || next != 4 {
		t.Fatalf("after eviction: %q next=%d", lines, next)
	}
	// Reading from a sequence mid-ring returns the suffix.
	lines, _, _, _ = l.read(3)
	if len(lines) != 1 || string(lines[0]) != `{"a":4}` {
		t.Fatalf("suffix read = %q", lines)
	}
	// A change channel wakes on append.
	_, _, _, changed := l.read(4)
	go l.Write([]byte("{\"a\":5}\n"))
	select {
	case <-changed:
	case <-time.After(2 * time.Second):
		t.Fatal("change channel never woke")
	}
	// Close flushes an unterminated fragment and marks the log closed.
	l.Write([]byte("tail-without-newline"))
	l.Close()
	lines, _, closed, _ = l.read(0)
	if !closed || !strings.Contains(string(lines[len(lines)-1]), "tail-without-newline") {
		t.Fatalf("close: closed=%v last=%q", closed, lines[len(lines)-1])
	}
	l.Write([]byte("ignored\n")) // writes after close are dropped
	if got, _, _, _ := l.read(0); strings.Contains(string(got[len(got)-1]), "ignored") {
		t.Error("write after close not dropped")
	}
}

// TestRegistryOrder: snapshots come back in registration order, and
// re-registering an id replaces in place.
func TestRegistryOrder(t *testing.T) {
	g := NewRegistry()
	g.NewRun("b", "run")
	g.NewRun("a", "sweep")
	g.NewRun("b", "run") // replace
	snaps := g.Snapshots()
	if len(snaps) != 2 || snaps[0].ID != "b" || snaps[1].ID != "a" {
		t.Fatalf("snapshot order = %+v", snaps)
	}
	if g.Get("nope") != nil {
		t.Error("Get of unknown id != nil")
	}
}
