package fleet

import "time"

// EventKind enumerates the unit-lifecycle notifications the engine
// publishes to Config.Monitor. Kinds cover the whole life of a run: the
// unit universe (run started), scheduling (dispatched, journal hit),
// execution (attempt started, done), ordered emission (rows emitted,
// window occupancy), and the drain path (interrupted, run done).
type EventKind uint8

const (
	// EventRunStarted fires once before dispatch begins; Units carries the
	// total unit count of the run.
	EventRunStarted EventKind = iota
	// EventUnitDispatched fires when a unit is handed to the worker pool.
	EventUnitDispatched
	// EventAttemptStarted fires once per unit that runs, with Attempt 1,
	// when its runner starts.
	EventAttemptStarted
	// EventJournalHit fires when a resumed unit is served from the
	// checkpoint journal instead of running; Rows and Attempt carry the
	// journaled counts.
	EventJournalHit
	// EventUnitDone fires at a unit's outcome: Rows/Wall/Attempt describe
	// it, Err and Stack the failure if any. A panic is Stack != ""; a
	// watchdog timeout is errors.Is(Err, ErrUnitTimeout). Units skipped by
	// an interrupt report Err = ErrInterrupted.
	EventUnitDone
	// EventRowsEmitted fires when a successful unit's rows pass the
	// ordered emission point into the sink stream.
	EventRowsEmitted
	// EventWindow reports dispatch-window occupancy after each completion:
	// InFlight units are running, Buffered are completed but not yet
	// emitted (the reorder buffer).
	EventWindow
	// EventInterrupted fires once when a graceful drain stops dispatch.
	EventInterrupted
	// EventRunDone fires once when the run's emission stream is complete.
	EventRunDone
)

// MonitorEvent is one engine notification. Events are plain values — the
// engine never allocates on their behalf — and only the fields relevant to
// the Kind are set.
type MonitorEvent struct {
	Kind EventKind
	// Unit is the unit's index in dispatch order; -1 for run-level events.
	Unit int
	// Key is the unit's stable identity ("grid/fig4/rep=0",
	// "grid/handover/delay_ms=100"); empty for run-level events.
	Key string
	// Attempt is 1 for a unit that runs (the journaled count on
	// EventJournalHit).
	Attempt int
	// Rows is the unit's row count (EventUnitDone, EventJournalHit,
	// EventRowsEmitted).
	Rows int
	// Units is the run's total unit count (EventRunStarted).
	Units int
	// Wall is the unit's cumulative wall time (EventUnitDone).
	Wall time.Duration
	// Err is the unit error, when the event reports a failure.
	Err error
	// Stack is the recovered panic stack (EventUnitDone after a panic).
	Stack string
	// InFlight and Buffered are the window-occupancy gauges (EventWindow).
	InFlight int
	Buffered int
}

// Monitor observes engine events. Implementations MUST be safe for
// concurrent use: events are published from the dispatcher, every worker
// goroutine, and the ordered-emission collector. Like
// SessionConfig.Telemetry, a monitor observes but never steers — it cannot
// fail a run, reorder emission, or change a single emitted row byte — and
// a nil Config.Monitor is provably inert (no allocations, no atomics
// beyond the engine's own accounting, no behavioral difference).
type Monitor interface {
	Event(MonitorEvent)
}

// publish forwards an event to the configured monitor; a nil monitor makes
// this a guarded no-op on every call site, which is what keeps the
// unmonitored dispatch path allocation-free.
func (c *Config) publish(ev MonitorEvent) {
	if c.Monitor != nil {
		c.Monitor.Event(ev)
	}
}
