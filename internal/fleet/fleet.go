// Package fleet is the parallel experiment-fleet scheduler: it runs
// registered experiments (internal/core's registry) by sharding each
// experiment's repetitions across one bounded worker pool, then merges the
// per-rep rows back in repetition order.
//
// Determinism is the core guarantee: repetitions derive their randomness
// from the experiment seed and the rep index alone (the RepRunner
// contract), and merged output preserves (experiment, rep) order, so a
// fleet run with any worker count produces byte-identical results to a
// sequential run. Sinks (JSONL, CSV, in-memory) serialize the merged rows;
// a run manifest records seed, options, worker count, wall time and rows
// emitted.
//
// The fleet is fault tolerant: a panicking runner is isolated (recovered,
// stack captured, its unit marked failed) instead of killing the process;
// failing or hung units retry under a RetryPolicy with a per-attempt
// watchdog and exponential backoff — and because units are pure, retried
// rows are byte-identical to first-try rows; completed units checkpoint to
// a content-addressed Journal so an interrupted or crashed run resumes
// without re-running finished work; and a deterministic chaos harness
// (FaultPlan) injects panics, errors and delays to keep all of the above
// honest. See DESIGN.md "Fault tolerance".
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
	// Retry re-runs failing or hung units; the zero value runs each unit
	// once with no watchdog.
	Retry RetryPolicy
	// Chaos, when non-nil, injects deterministic faults into unit
	// attempts and sink emissions (see FaultPlan).
	Chaos *FaultPlan
	// Checkpoint, when non-nil, journals every completed unit's rows
	// (content-addressed, atomic) as soon as the unit finishes.
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
	// Window bounds how many units may be in flight or completed but not
	// yet emitted (the reorder buffer); <=0 selects 4x workers. The bound
	// is what keeps streaming memory constant in grid size.
	Window int
	// Monitor, when non-nil, receives unit-lifecycle events (dispatch,
	// attempts, retries, panics, journal hits, ordered emission, window
	// occupancy) from every goroutine of the run; implementations must be
	// concurrency-safe. Monitors observe but never steer: emitted rows are
	// byte-identical with or without one, and a nil Monitor adds zero
	// allocations to the dispatch path. See internal/fleetobs for the live
	// HTTP/terminal views built on this.
	Monitor Monitor

	// onReport receives the engine's internal accounting (tests only).
	onReport func(engineReport)
}

// ExperimentResult is one experiment's merged outcome. Rows go to the
// experiment's sink; the result carries only per-rep metadata.
type ExperimentResult struct {
	// Experiment is the registry entry that produced the rows.
	Experiment core.Experiment
	// RowCount is the number of rows the experiment emitted.
	RowCount int
	// Reps is how many work units the experiment sharded into.
	Reps int
	// Wall is the cumulative wall time spent in this experiment's reps
	// (across workers and attempts; parallel runs overlap these
	// intervals).
	Wall time.Duration
	// Attempts is the total attempt count across reps (> Reps when
	// retries fired).
	Attempts int
	// Resumed counts reps served from the checkpoint journal.
	Resumed int
	// Err is the first (lowest-rep) failure, if any.
	Err error
	// Failures records every failed rep with its error, captured panic
	// stack, and attempt count (the manifest's failures section).
	Failures []UnitFailure
}

// experimentUnits flattens experiments into scheduler units, exp-major in
// rep order, and returns the owner map from unit index to (exp, rep).
func experimentUnits(exps []core.Experiment, opts core.Options) ([]unit, []struct{ exp, rep int }, error) {
	var units []unit
	var owners []struct{ exp, rep int }
	for ei, e := range exps {
		reps := e.Reps(opts)
		if reps <= 0 {
			return nil, nil, fmt.Errorf("fleet: experiment %q reports %d reps", e.Name, reps)
		}
		for r := 0; r < reps; r++ {
			ei, r, e := ei, r, e
			units = append(units, unit{
				key:    "run/" + e.Name + "/rep" + strconv.Itoa(r),
				labels: []string{"experiment", e.Name},
				run:    func() ([]core.Row, error) { return e.Run(opts, r) },
			})
			owners = append(owners, struct{ exp, rep int }{ei, r})
		}
	}
	return units, owners, nil
}

// RunStream executes the given experiments under opts, sharding every
// experiment's repetitions across one worker pool of cfg.Workers
// goroutines, and streams each repetition's rows to per-experiment sinks
// (from factory) as soon as the repetition and all earlier ones have
// completed. Rows reach each sink in rep order — identical bytes for any
// worker count — and memory stays bounded by the reorder window
// (Config.Window) instead of the whole run. Collect rows in memory with a
// factory returning a MemorySink.
//
// A failing repetition (error, panic, or watchdog timeout, after retries)
// does not suppress its siblings: completed reps stream immediately and
// failures land in Failures and the joined error — the resulting file has
// a gap exactly where the failed rep's rows would be, which a later
// resumed run fills in.
//
// With cfg.Checkpoint set, completed reps journal before they stream; with
// cfg.Resume, journaled reps replay through the sink without running — the
// sink must implement EntrySink (NewJSONLSink and NewCSVSink do).
func RunStream(exps []core.Experiment, opts core.Options, cfg Config, factory SinkFactory) ([]ExperimentResult, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	units, owners, err := experimentUnits(exps, opts)
	if err != nil {
		return nil, err
	}

	results := make([]ExperimentResult, len(exps))
	for ei, e := range exps {
		// Pre-mark every experiment interrupted; emission overwrites. A
		// run aborted by an emit error leaves the untouched tail marked
		// resumable, which is exactly what it is.
		results[ei] = ExperimentResult{Experiment: e, Err: ErrInterrupted}
	}
	for _, o := range owners {
		results[o.exp].Reps++
	}
	seenErr := make([]error, len(exps))

	var sink Sink
	openExp := -1
	closeOpen := func() error {
		if sink == nil {
			return nil
		}
		s := sink
		sink = nil
		openExp = -1
		return s.Close()
	}

	_, emitErr := runOrdered(units, opts.Fingerprint(), cfg, func(i int, o unitOutcome) error {
		t := owners[i]
		res := &results[t.exp]
		if res.Err != nil && errors.Is(res.Err, ErrInterrupted) && seenErr[t.exp] == nil {
			res.Err = nil // first emission for this experiment: clear the pre-mark
		}
		res.Wall += o.wall
		res.Attempts += o.attempts
		if o.resumed {
			res.Resumed++
		}
		if o.err != nil {
			if seenErr[t.exp] == nil {
				seenErr[t.exp] = fmt.Errorf("fleet: %s rep %d: %w", res.Experiment.Name, t.rep, o.err)
				res.Err = seenErr[t.exp]
			}
			// Interrupted units are skips, not failures: resumable work,
			// not defects worth a manifest failures entry.
			if !errors.Is(o.err, ErrInterrupted) {
				res.Failures = append(res.Failures, UnitFailure{
					Unit: units[i].key, Error: o.err.Error(), Stack: o.stack, Attempts: o.attempts,
				})
			}
			return nil
		}
		// Open this experiment's sink on its first emitted rep; close the
		// previous experiment's (emission order is exp-major).
		if openExp != t.exp {
			if err := closeOpen(); err != nil {
				return err
			}
			s, err := factory(res.Experiment)
			if err != nil {
				return err
			}
			sink, openExp = s, t.exp
		}
		if err := emitUnit(sink, units[i].key, o, cfg.Chaos); err != nil {
			return err
		}
		res.RowCount += o.rowCount()
		return nil
	})
	closeErr := closeOpen()

	var joined []error
	for ei := range results {
		if results[ei].Err != nil {
			joined = append(joined, fmt.Errorf("fleet: %s: %w", results[ei].Experiment.Name, results[ei].Err))
		}
	}
	return results, errors.Join(append(joined, emitErr, closeErr)...)
}

// emitUnit writes one successful unit's rows to sink, for both drivers: a
// journal replay goes through EntrySink verbatim; a live outcome first
// passes the chaos plan's sink fault, then writes its rows in order.
func emitUnit(sink Sink, key string, o unitOutcome, chaos *FaultPlan) error {
	if o.entry != nil {
		es, ok := sink.(EntrySink)
		if !ok {
			return fmt.Errorf("fleet: sink %T cannot replay journal entries (no EntrySink)", sink)
		}
		return es.WriteEntry(o.entry)
	}
	if err := chaos.sinkFault(key); err != nil {
		return err
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
