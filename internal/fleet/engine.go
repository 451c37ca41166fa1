package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"telepresence/internal/core"
)

// unit is one schedulable work item: an experiment repetition or a sweep
// cell (see section). Units are pure (all randomness derives from the seed
// and the unit's identity), which is what makes retry, resume, and
// worker-count invariance cheap — a unit's rows are the same wherever and
// whenever it runs.
type unit struct {
	// key is the unit's stable identity ("grid/fig4/rep=0",
	// "grid/handover/delay_ms=100"); with the options scope it forms the
	// journal key and seeds chaos decisions.
	key string
	// labels are pprof label pairs attached while the unit runs.
	labels []string
	run    func() ([]core.Row, error)
}

// unitOutcome is a unit's terminal result after retries (or a journal
// replay).
type unitOutcome struct {
	rows     []core.Row    // live success: the typed rows
	entry    *JournalEntry // resumed: the pre-encoded rows (rows is nil)
	err      error
	stack    string // captured panic stack, when the failure was a panic
	attempts int
	wall     time.Duration
	resumed  bool
}

// rowCount works for both live and resumed outcomes.
func (o unitOutcome) rowCount() int {
	if o.entry != nil {
		return o.entry.Rows
	}
	return len(o.rows)
}

// runOrdered executes units under cfg's pool, retry policy, chaos plan and
// journal, calling emit exactly once per unit in index order as soon as the
// unit and all its predecessors have resolved. Guarantees:
//
//   - Dispatch is index-ordered and window-gated: at most window units are
//     in flight or completed-but-unemitted, so streamed memory is bounded
//     by the window, not the run size.
//   - Completed units journal immediately (order-independent, keyed
//     writes), so an interrupt or crash never loses finished work even
//     when emission hasn't reached the unit yet.
//   - With cfg.Resume, journaled units are served without running; they
//     flow through emission in order like live ones.
//   - On interrupt, no new units start; in-flight units finish, journal,
//     and emit; never-started units emit with ErrInterrupted.
//   - An emit error aborts the run: dispatch stops, in-flight work drains,
//     and no further emit calls are made.
func runOrdered(units []unit, scope string, cfg Config, emit func(i int, o unitOutcome) error) error {
	n := len(units)
	if n == 0 {
		return nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	window := cfg.Window
	if window <= 0 {
		window = 4 * workers
	}
	// The window is a hard memory bound; extra workers beyond it could
	// never all be in flight, so shrink the pool rather than the promise.
	if workers > window {
		workers = window
	}

	interrupt := cfg.Interrupt
	stop := make(chan struct{}) // closed on emit error: stop dispatching
	var stopOnce sync.Once

	// dispatchedN feeds the window-occupancy events; the counter itself is
	// engine accounting (an atomic add, no allocation) and the events only
	// fire when a monitor is attached.
	var dispatchedN atomic.Int64
	cfg.publish(MonitorEvent{Kind: EventRunStarted, Unit: -1, Units: n})

	type indexed struct {
		i int
		o unitOutcome
	}
	tasks := make(chan int)
	done := make(chan indexed)
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				o := executeUnit(i, units[i], cfg, interrupt)
				if o.err == nil && cfg.Checkpoint != nil {
					if e, err := encodeEntry(units[i].key, scope, o.attempts, o.rows); err != nil {
						o.err = err
					} else if err := cfg.Checkpoint.Write(e); err != nil {
						o.err = err
					}
				}
				cfg.publish(MonitorEvent{Kind: EventUnitDone, Unit: i, Key: units[i].key,
					Attempt: o.attempts, Rows: len(o.rows), Wall: o.wall, Err: o.err, Stack: o.stack})
				done <- indexed{i, o}
			}
		}()
	}

	// Dispatcher: in index order, one window token per unit. Journal hits
	// bypass the worker pool but still ride the done channel so emission
	// interleaves them in order.
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		defer close(tasks)
		for i := 0; i < n; i++ {
			// Priority check: a closed interrupt/stop must win over an
			// available token, or a drain could keep dispatching for as
			// long as the random select favors the token case.
			select {
			case <-interrupt:
				cfg.publish(MonitorEvent{Kind: EventInterrupted, Unit: -1})
				return
			case <-stop:
				return
			default:
			}
			select {
			case <-tokens:
			case <-interrupt:
				cfg.publish(MonitorEvent{Kind: EventInterrupted, Unit: -1})
				return
			case <-stop:
				return
			}
			if cfg.Resume && cfg.Checkpoint != nil {
				if e, ok := cfg.Checkpoint.Lookup(units[i].key, scope); ok {
					dispatchedN.Add(1)
					cfg.publish(MonitorEvent{Kind: EventJournalHit, Unit: i, Key: units[i].key,
						Attempt: e.Attempts, Rows: e.Rows})
					select {
					case done <- indexed{i, unitOutcome{entry: e, attempts: e.Attempts, resumed: true}}:
					case <-stop:
						return
					}
					continue
				}
			}
			dispatchedN.Add(1)
			cfg.publish(MonitorEvent{Kind: EventUnitDispatched, Unit: i, Key: units[i].key})
			select {
			case tasks <- i:
			case <-interrupt:
				cfg.publish(MonitorEvent{Kind: EventInterrupted, Unit: -1})
				return
			case <-stop:
				return
			}
		}
	}()
	go func() {
		<-dispatched
		wg.Wait()
		close(done)
	}()

	// Collector: buffer out-of-order completions, emit the contiguous
	// prefix, release window tokens per emitted unit.
	next := 0
	buf := map[int]unitOutcome{}
	var emitErr error
	flush := func() {
		for {
			o, ok := buf[next]
			if !ok {
				return
			}
			delete(buf, next)
			if emitErr == nil {
				if err := emit(next, o); err != nil {
					emitErr = err
					stopOnce.Do(func() { close(stop) })
				} else if o.err == nil {
					cfg.publish(MonitorEvent{Kind: EventRowsEmitted, Unit: next,
						Key: units[next].key, Rows: o.rowCount()})
				}
			}
			next++
			tokens <- struct{}{}
		}
	}
	maxBuffered := 0 // reorder-buffer high-water mark, bounded by the window
	for ix := range done {
		buf[ix.i] = ix.o
		maxBuffered = max(maxBuffered, len(buf))
		flush()
		if cfg.Monitor != nil {
			cfg.publish(MonitorEvent{Kind: EventWindow, Unit: -1,
				InFlight: int(dispatchedN.Load()) - next - len(buf), Buffered: len(buf)})
		}
	}
	flush()

	// Units never dispatched (a contiguous suffix, since dispatch is
	// index-ordered) were skipped by an interrupt or an emit abort.
	for ; next < n; next++ {
		cfg.publish(MonitorEvent{Kind: EventUnitDone, Unit: next, Key: units[next].key,
			Err: ErrInterrupted})
		if emitErr == nil {
			if err := emit(next, unitOutcome{err: ErrInterrupted}); err != nil {
				emitErr = err
			}
		}
	}
	cfg.publish(MonitorEvent{Kind: EventRunDone, Unit: -1, Err: emitErr})
	if cfg.onMaxBuffered != nil {
		cfg.onMaxBuffered(maxBuffered)
	}
	return emitErr
}
