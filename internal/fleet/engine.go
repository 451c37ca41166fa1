package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"telepresence/internal/core"
)

// ErrInterrupted marks work skipped or abandoned by a graceful drain: the
// run stopped dispatching, finished what was in flight, and every completed
// unit is preserved (journaled when a checkpoint is configured). A run that
// returns an error satisfying errors.Is(err, ErrInterrupted) can be resumed
// from its journal.
var ErrInterrupted = errors.New("fleet: interrupted (resumable)")

// ErrUnitTimeout marks a unit abandoned by the per-cell watchdog
// (Config.CellTimeout).
var ErrUnitTimeout = errors.New("fleet: unit timed out")

// unit is one schedulable work item: an experiment repetition or a sweep
// cell (see section). Units are pure (all randomness derives from the seed
// and the unit's identity), which is what makes resume and worker-count
// invariance cheap — a unit's rows are the same wherever and whenever it
// runs. It is also why a unit runs once: one that panics, errors or hangs
// would do the same again.
type unit struct {
	// key is the unit's stable identity ("grid/fig4/rep=0",
	// "grid/handover/delay_ms=100"); with the options scope it forms the
	// journal key.
	key string
	// labels are pprof label pairs attached while the unit runs.
	labels []string
	run    func() ([]core.Row, error)
}

// unitOutcome is a unit's result: its one live run, or a journal replay.
type unitOutcome struct {
	rows []core.Row // live success: the typed rows
	// entry is the pre-encoded rows: the journaled record of a live unit
	// run under a checkpoint, or the replayed one of a resumed unit (whose
	// rows are nil).
	entry    *JournalEntry
	err      error
	stack    string // captured panic stack, when the failure was a panic
	attempts int    // 1 for a unit that ran or was resumed
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

// executeUnit runs unit i once, inside a recover() so a panicking runner
// becomes an error with its stack captured instead of killing the process.
// A positive cfg.CellTimeout arms the watchdog: a unit still running at
// expiry fails with ErrUnitTimeout, and its goroutine is left to finish in
// the background with its result discarded through the buffered channel.
func executeUnit(i int, u unit, cfg Config) unitOutcome {
	start := time.Now()
	cfg.publish(MonitorEvent{Kind: EventAttemptStarted, Unit: i, Key: u.key, Attempt: 1})
	ch := make(chan unitOutcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- unitOutcome{err: fmt.Errorf("panic: %v", p), stack: string(debug.Stack()), wall: time.Since(start)}
			}
		}()
		var o unitOutcome
		// Label the unit for CPU profiling: -cpuprofile samples attribute
		// to (experiment, cell) instead of an undifferentiated pool.
		pprof.Do(context.Background(), pprof.Labels(u.labels...), func(context.Context) {
			o.rows, o.err = u.run()
		})
		o.wall = time.Since(start)
		ch <- o
	}()
	var o unitOutcome
	if cfg.CellTimeout <= 0 {
		o = <-ch
	} else {
		t := time.NewTimer(cfg.CellTimeout)
		late := true
		select {
		case o = <-ch:
			// The verdict follows the unit's own run time, not which
			// channel the scheduler serves first: a unit that ran past
			// the deadline fails even when its result reached here first.
			late = o.wall > cfg.CellTimeout
		case <-t.C:
		}
		t.Stop()
		if late {
			o = unitOutcome{err: fmt.Errorf("%w: still running after %v (abandoned)", ErrUnitTimeout, cfg.CellTimeout)}
		}
	}
	if o.err != nil {
		o.err = fmt.Errorf("fleet: %s failed: %w", u.key, o.err)
	}
	o.attempts, o.wall = 1, time.Since(start)
	return o
}

// runOrdered executes units under cfg's pool and journal, calling emit
// exactly once per unit in index order as soon as the unit and all its
// predecessors have resolved. Guarantees:
//
//   - Dispatch is index-ordered and window-gated: at most window units are
//     in flight or completed-but-unemitted, so streamed memory is bounded
//     by the window, not the run size.
//   - Completed units journal immediately (order-independent, keyed
//     records), so an interrupt or a killed process never loses finished
//     work even when emission hasn't reached the unit yet. The journal's
//     segment is synced once, when the run ends or drains.
//   - With cfg.Resume, journaled units are served without running; they
//     flow through emission in order like live ones.
//   - On interrupt, no new units start; in-flight units finish, journal,
//     and emit; never-started units emit with ErrInterrupted.
//   - An emit error aborts the run: dispatch stops, in-flight work drains,
//     and no further emit calls are made.
//
// The emit callback owns the error it returns; runOrdered returns only a
// failure to sync the journal.
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
				o := executeUnit(i, units[i], cfg)
				if o.err == nil && cfg.Checkpoint != nil {
					if o.entry, o.err = encodeEntry(units[i].key, scope, o.rows); o.err == nil {
						o.err = cfg.Checkpoint.Write(o.entry)
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
						Attempt: 1, Rows: e.Rows})
					select {
					case done <- indexed{i, unitOutcome{entry: e, attempts: 1, resumed: true}}:
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
	var syncErr error
	if cfg.Checkpoint != nil {
		syncErr = cfg.Checkpoint.sync()
	}
	cfg.publish(MonitorEvent{Kind: EventRunDone, Unit: -1, Err: errors.Join(emitErr, syncErr)})
	if cfg.onMaxBuffered != nil {
		cfg.onMaxBuffered(maxBuffered)
	}
	return syncErr
}
