package fleet

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"telepresence/internal/core"
)

// testExperiment emits two rows per rep that depend only on the rep, or
// panics in every rep when panics is set.
func testExperiment(name string, reps int, panics bool) core.Experiment {
	return core.Experiment{
		Name: name, Desc: "test", Row: 0,
		Reps: func(core.Options) int { return reps },
		Run: func(_ core.Options, rep int) ([]core.Row, error) {
			if panics {
				panic("synthetic rep panic")
			}
			return []core.Row{rep * 10, rep*10 + 1}, nil
		},
	}
}

// TestPanicIsolation: a panicking rep must not kill the process or its
// sibling experiments — it becomes that experiment's error, with the
// panic stack captured for the manifest, and leaves a gap in the stream
// while every sibling's rows still arrive. Each rep runs once: one
// failure with attempts 1, and no second attempt.
func TestPanicIsolation(t *testing.T) {
	boom := testExperiment("boom", 2, true)
	var runs atomic.Int64
	run := boom.Run
	boom.Run = func(opts core.Options, rep int) ([]core.Row, error) {
		runs.Add(1)
		return run(opts, rep)
	}
	good := testExperiment("good", 2, false)
	res, rows, err := runRows([]core.Experiment{boom, good}, core.Quick(1), Config{Workers: 4})
	if err == nil {
		t.Fatal("panicking experiment produced no error")
	}
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "panic: synthetic rep panic") {
		t.Errorf("panic not converted to error: %v", res[0].Err)
	}
	m := NewManifest(core.Quick(1), 4, 0, res)
	if len(m.Failures) != 2 {
		t.Fatalf("%d failures recorded, want 2 (one per rep)", len(m.Failures))
	}
	for _, f := range m.Failures {
		if f.Stack == "" || !strings.Contains(f.Stack, "goroutine") {
			t.Errorf("panic stack not captured: %q", f.Stack)
		}
		if f.Unit != "grid/boom/rep=0" && f.Unit != "grid/boom/rep=1" {
			t.Errorf("failure unit key %q", f.Unit)
		}
		if f.Attempts != 1 {
			t.Errorf("failure %s attempts = %d, want 1", f.Unit, f.Attempts)
		}
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("panicking reps ran %d times, want 2 (once each)", n)
	}
	if m.Sections[0].Rows != 0 || len(rows["boom"]) != 0 {
		t.Errorf("failed reps emitted rows: count=%d sink=%v", m.Sections[0].Rows, rows["boom"])
	}
	if res[2].Err != nil || res[3].Err != nil || m.Sections[1].Rows != 4 || len(rows["good"]) != 4 {
		t.Errorf("sibling experiment harmed: err=%v/%v count=%d sink=%d",
			res[2].Err, res[3].Err, m.Sections[1].Rows, len(rows["good"]))
	}
}

// TestWatchdogTimeout: a hung unit is abandoned on Config.CellTimeout and
// fails once with ErrUnitTimeout: one failed result, one manifest failure
// with attempts 1, and no second attempt.
func TestWatchdogTimeout(t *testing.T) {
	var runs atomic.Int64
	hang := core.Experiment{
		Name: "hang", Desc: "test", Row: 0,
		Reps: func(core.Options) int { return 1 },
		Run: func(core.Options, int) ([]core.Row, error) {
			runs.Add(1)
			time.Sleep(10 * time.Second) // hung; the watchdog abandons it
			return []core.Row{0}, nil
		},
	}
	mon := &recordingMonitor{}
	cfg := Config{Workers: 1, CellTimeout: 50 * time.Millisecond, Monitor: mon}
	res, rows, err := runRows([]core.Experiment{hang}, core.Quick(1), cfg)
	if !errors.Is(err, ErrUnitTimeout) || !errors.Is(res[0].Err, ErrUnitTimeout) {
		t.Fatalf("hung unit error = %v (result %v), want ErrUnitTimeout", err, res[0].Err)
	}
	if len(rows["hang"]) != 0 || res[0].Attempts != 1 || res[0].Stack != "" {
		t.Errorf("rows=%d attempts=%d stack=%q, want no rows, 1 attempt, no stack",
			len(rows["hang"]), res[0].Attempts, res[0].Stack)
	}
	m := NewManifest(core.Quick(1), 1, 0, res)
	if len(m.Failures) != 1 || m.Failures[0].Attempts != 1 || m.Failures[0].Unit != "grid/hang/rep=0" {
		t.Errorf("manifest failures = %+v, want one for grid/hang/rep=0 with attempts 1", m.Failures)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("runner started %d times, want 1", n)
	}
	if n := len(mon.byKind(EventAttemptStarted)); n != 1 {
		t.Errorf("%d AttemptStarted events, want 1", n)
	}
}

// TestSweepPanicIsolated: the sweep path shares the same isolation (panic
// stack lands in the cell result and the manifest failures section).
func TestSweepPanicIsolated(t *testing.T) {
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{-2, 1}}}}
	results, rows, err := sweepRows(spec, core.Quick(1), Config{Workers: 2})
	if err == nil {
		t.Fatal("panicking cell produced no error")
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panic: synthetic panic") {
		t.Errorf("cell 0: %v, want recovered panic", results[0].Err)
	}
	if results[0].Stack == "" {
		t.Error("panic stack not captured on cell result")
	}
	if results[1].Err != nil || results[1].Rows != 1 || len(rows) != 1 {
		t.Errorf("surviving cell harmed: err=%v rows=%d", results[1].Err, len(rows))
	}
	m := NewManifest(core.Quick(1), 2, time.Millisecond, results)
	if len(m.Failures) != 1 || m.Failures[0].Stack == "" || m.Failures[0].Attempts != 1 {
		t.Errorf("manifest failures = %+v", m.Failures)
	}
}
