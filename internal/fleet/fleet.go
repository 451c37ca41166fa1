// Package fleet is the parallel experiment-fleet scheduler. Every run is
// one grid of units split into sections: a registered experiment
// (internal/core's registry) is a section whose units are its repetitions,
// and a sweep over a target's parameters is a section whose units are its
// grid cells. One driver shards all units across a bounded worker pool and
// streams each section's rows to its sink in unit order.
//
// Determinism is the core guarantee: a unit derives its randomness from
// the run seed and its own identity alone (the RepRunner and CellRunner
// contracts), and merged output preserves unit order, so a fleet run with
// any worker count produces byte-identical results to a sequential run.
// Sinks (JSONL, CSV, in-memory) serialize the rows; a run manifest records
// seed, options, worker count, wall time and every unit's accounting.
//
// The fleet is fault tolerant without retrying anything: units are pure,
// so one that panics, errors or hangs would do the same again. A
// panicking runner is isolated (recovered, stack captured, its unit marked
// failed) instead of killing the process; a per-cell watchdog fails a hung
// unit; completed units checkpoint to an append-only Journal so an
// interrupted or killed run resumes without re-running finished work; and
// an interrupt drains gracefully. See DESIGN.md "Fault tolerance".
package fleet

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"telepresence/internal/core"
)

// Config tunes a fleet run.
type Config struct {
	// Workers bounds the worker pool; <=0 selects GOMAXPROCS.
	Workers int
	// CellTimeout is a wall-clock watchdog per unit: a unit still running
	// after this long fails with ErrUnitTimeout. Its goroutine is left to
	// finish in the background and its result is discarded. 0 disables
	// the watchdog.
	CellTimeout time.Duration
	// Checkpoint, when non-nil, journals every completed unit's rows as
	// one record appended to the journal as soon as the unit finishes.
	Checkpoint *Journal
	// Resume serves units already present in Checkpoint from the journal
	// instead of re-running them. Journaled rows are pre-encoded bytes, so
	// the sink must implement EntrySink to replay them.
	Resume bool
	// Interrupt, when non-nil, triggers a graceful drain once it becomes
	// receivable (closed): no new units start, in-flight units finish and
	// journal, and the run returns an error satisfying
	// errors.Is(err, ErrInterrupted).
	Interrupt <-chan struct{}
	// Monitor, when non-nil, receives unit-lifecycle events (dispatch,
	// start, completion, journal hits, ordered emission, window
	// occupancy) from every goroutine of the run; implementations must be
	// concurrency-safe. Monitors observe but never steer: emitted rows are
	// byte-identical with or without one, and a nil Monitor adds zero
	// allocations to the dispatch path. See internal/fleetobs for the live
	// HTTP/terminal views built on this.
	Monitor Monitor

	// onMaxBuffered receives the run's reorder-buffer high-water mark
	// (tests only).
	onMaxBuffered func(int)
}

// UnitResult is one unit's outcome: an experiment repetition or a sweep
// cell. Rows go to the unit's section sink; the result carries only
// metadata.
type UnitResult struct {
	// Section names the experiment or sweep target the unit belongs to.
	Section string
	// Label names the unit within its section: "rep=N" for a registry
	// repetition, the canonical parameter label for a sweep cell.
	Label string
	// Key is the unit's stable identity (unitKey), from which the journal
	// key derives.
	Key string
	// Rows is the number of rows the unit emitted.
	Rows int
	// Wall is the unit's wall time (parallel units overlap these
	// intervals).
	Wall time.Duration
	// Attempts is 1 for a unit that ran or was resumed; 0 for a unit an
	// interrupted run never started.
	Attempts int
	// Resumed reports the unit was served from the checkpoint journal.
	Resumed bool
	// Err is the unit's failure, or ErrInterrupted when the run drained
	// before the unit ran.
	Err error
	// Stack is the captured goroutine stack when the failure was a panic.
	Stack string
}

// unitKey builds every unit key: "grid/<section>/<label>". The section
// name sits in the middle field, where per-section accounting finds it.
func unitKey(section, label string) string {
	return "grid/" + section + "/" + label
}

// section is one named run of units sharing a sink: a registry
// experiment's repetitions or a sweep grid's cells.
type section struct {
	name string
	// labels name the units, in emission order.
	labels []string
	// run executes unit i of the section.
	run func(i int) ([]core.Row, error)
	// open returns the section's sink; the driver calls it on the
	// section's first emitted unit and closes the sink after its last.
	open func() (Sink, error)
}

// runSections is the one grid driver. It flattens sections into units,
// section-major in label order, runs them on cfg's pool (runOrdered), and
// streams each successful unit's rows to its section's sink as soon as the
// unit and all earlier ones have resolved. Rows reach each sink in unit
// order, byte-identical for any worker count, and memory stays bounded by
// the reorder window (windowPerWorker units per worker) instead of the
// whole run.
//
// A failing unit (error, panic, or watchdog timeout) does not suppress
// its siblings: it leaves a gap in the stream exactly where its rows
// would be, which a later resumed run fills in. With
// cfg.Checkpoint set, completed units journal before they stream; with
// cfg.Resume, journaled units replay through the sink without running, so
// the sink must implement EntrySink (NewJSONLSink and NewCSVSink do).
//
// The returned error joins every unit failure, plus ErrInterrupted once
// when any unit was skipped by a drain.
func runSections(secs []section, opts core.Options, cfg Config) ([]UnitResult, error) {
	n := 0
	for _, s := range secs {
		n += len(s.labels)
	}
	units := make([]unit, 0, n)
	results := make([]UnitResult, 0, n)
	ends := make([]int, len(secs)) // ends[s] is one past section s's last unit
	for si := range secs {
		s := &secs[si]
		labels := []string{"experiment", s.name}
		for i, label := range s.labels {
			key := unitKey(s.name, label)
			units = append(units, unit{key: key, labels: labels,
				run: func() ([]core.Row, error) { return s.run(i) }})
			// Pre-mark every unit interrupted; emission overwrites. A run
			// aborted by an emit error leaves the untouched tail marked
			// resumable, which is exactly what it is.
			results = append(results, UnitResult{
				Section: s.name, Label: key[len(key)-len(label):], Key: key, Err: ErrInterrupted,
			})
		}
		ends[si] = len(units)
	}

	var sink Sink
	cur, opened := 0, -1
	closeSink := func() error {
		if sink == nil {
			return nil
		}
		s := sink
		sink = nil
		return s.Close()
	}
	// runOrdered's error is a failed journal sync; an emit error that
	// stopped the run is already recorded on its unit's result.
	syncErr := runOrdered(units, opts.Fingerprint(), cfg, func(i int, o unitOutcome) error {
		for i >= ends[cur] {
			cur++
		}
		r := &results[i]
		r.Wall, r.Attempts, r.Resumed, r.Err, r.Stack = o.wall, o.attempts, o.resumed, o.err, o.stack
		if o.err != nil {
			return nil
		}
		// Emission is section-major: open this section's sink on its first
		// emitted unit and close the previous section's.
		if opened != cur {
			if r.Err = closeSink(); r.Err != nil {
				return r.Err
			}
			if sink, r.Err = secs[cur].open(); r.Err != nil {
				return r.Err
			}
			opened = cur
		}
		if r.Err = emitUnit(sink, o); r.Err != nil {
			return r.Err
		}
		r.Rows = o.rowCount()
		return nil
	})

	errs := []error{syncErr}
	interrupted := false
	for _, r := range results {
		switch {
		case r.Err == nil:
		case errors.Is(r.Err, ErrInterrupted):
			interrupted = true
		default:
			errs = append(errs, r.Err)
		}
	}
	if interrupted {
		errs = append(errs, ErrInterrupted)
	}
	return results, errors.Join(append(errs, closeSink())...)
}

// RunStream executes the given experiments under opts, one section per
// experiment whose units are its repetitions ("rep=N"), and streams each
// experiment's rows to its own sink from factory (see runSections).
// Collect rows in memory with a factory returning a MemorySink.
func RunStream(exps []core.Experiment, opts core.Options, cfg Config, factory SinkFactory) ([]UnitResult, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	secs := make([]section, len(exps))
	for i, e := range exps {
		reps := e.Reps(opts)
		if reps <= 0 {
			return nil, fmt.Errorf("fleet: experiment %q reports %d reps", e.Name, reps)
		}
		labels := make([]string, reps)
		for r := range labels {
			labels[r] = "rep=" + strconv.Itoa(r)
		}
		secs[i] = section{
			name:   e.Name,
			labels: labels,
			run:    func(r int) ([]core.Row, error) { return e.Run(opts, r) },
			open:   func() (Sink, error) { return factory(e) },
		}
	}
	return runSections(secs, opts, cfg)
}

// emitUnit writes one successful unit's rows to sink. A journaled unit —
// resumed, or run live under a checkpoint — goes through EntrySink with
// the rows its journal record already encoded, so they are encoded once;
// otherwise a live outcome writes its rows in order.
func emitUnit(sink Sink, o unitOutcome) error {
	if es, ok := sink.(EntrySink); ok && o.entry != nil {
		return es.WriteEntry(o.entry)
	}
	if o.resumed {
		return fmt.Errorf("fleet: sink %T cannot replay journal entries (no EntrySink)", sink)
	}
	for _, row := range o.rows {
		if err := sink.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// Select resolves experiment names against the registry. The single name
// "all" (or no names) selects everything.
func Select(names ...string) ([]core.Experiment, error) {
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		return core.Experiments(), nil
	}
	var out []core.Experiment
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		e, ok := core.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("fleet: unknown experiment %q (try: list)", n)
		}
		out = append(out, e)
	}
	return out, nil
}
