package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"telepresence/internal/core"
	"telepresence/internal/simtime"
)

// Sink consumes one experiment's merged rows. Implementations are not
// safe for concurrent use; the fleet writes to each sink from one
// goroutine, in deterministic row order.
type Sink interface {
	Write(row core.Row) error
	Close() error
}

// SinkFactory opens a sink for one experiment (e.g. a per-experiment
// output file).
type SinkFactory func(e core.Experiment) (Sink, error)

// EntrySink is implemented by sinks that can replay a checkpointed
// journal entry's pre-encoded rows byte-identically to live writes.
// Resuming a run (Config.Resume) requires the sink to implement it;
// NewJSONLSink and NewCSVSink both do. Under a checkpoint, live units
// also go through WriteEntry, so their rows are encoded once.
type EntrySink interface {
	Sink
	WriteEntry(e *JournalEntry) error
}

// ------------------------------------------------------------------ JSONL

type jsonlSink struct {
	w   io.Writer
	enc *json.Encoder
}

// NewJSONLSink writes one JSON object per row to w. Encoding is
// deterministic: struct fields serialize in declaration order and samples
// serialize as their descriptive summary.
func NewJSONLSink(w io.Writer) Sink {
	return jsonlSink{w: w, enc: json.NewEncoder(w)}
}

func (s jsonlSink) Write(row core.Row) error { return s.enc.Encode(row) }
func (s jsonlSink) Close() error             { return nil }

// WriteEntry writes a journal entry's pre-encoded JSONL lines in one
// write. The stored lines are json.Marshal output, which matches
// json.Encoder's encoding exactly, so a resumed file is byte-identical to
// a live one.
func (s jsonlSink) WriteEntry(e *JournalEntry) error {
	var buf []byte
	for _, line := range e.JSONL {
		buf = append(append(buf, line...), '\n')
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := s.w.Write(buf)
	return err
}

// ----------------------------------------------------------------- Memory

// MemorySink accumulates rows in memory, for tests and programmatic use:
// pass it to RunSweepStream, or return it from a RunStream SinkFactory, to
// collect a run's rows.
type MemorySink struct{ Rows []core.Row }

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

func (s *MemorySink) Write(row core.Row) error { s.Rows = append(s.Rows, row); return nil }

// Close is a no-op; rows stay readable after closing.
func (s *MemorySink) Close() error { return nil }

// --------------------------------------------------------------- Manifest

// UnitManifest records one unit inside a manifest section.
type UnitManifest struct {
	Key    string  `json:"key"`
	Label  string  `json:"label"`
	Rows   int     `json:"rows"`
	WallMs float64 `json:"wall_ms"`
	// Attempts is 1 for a unit that ran or was resumed (a unit runs once;
	// the field keeps the schema); omitted (0) for units an interrupted
	// run never started.
	Attempts int `json:"attempts,omitempty"`
	// Resumed marks units replayed from the checkpoint journal.
	Resumed bool `json:"resumed,omitempty"`
	// Skipped marks units an interrupted run never completed; a resumed
	// run fills them in.
	Skipped bool `json:"skipped,omitempty"`
}

// UnitFailure records one unit's failure for manifests: which unit, what
// it said, the captured panic stack if it crashed, and how many attempts
// it took (always 1; the field keeps the manifest schema).
type UnitFailure struct {
	Unit     string `json:"unit"`
	Error    string `json:"error"`
	Stack    string `json:"stack,omitempty"`
	Attempts int    `json:"attempts"`
}

// SectionManifest records one section of a run: a registry experiment or
// a sweep target, with its row file and every unit in emission order.
type SectionManifest struct {
	Name  string         `json:"name"`
	File  string         `json:"file,omitempty"`
	Rows  int            `json:"rows"`
	Units []UnitManifest `json:"units"`
}

// rowsPerSec computes a rows-per-second rate, 0 when the interval is
// degenerate (zero wall time or no rows).
func rowsPerSec(rows int, wall time.Duration) float64 {
	if rows <= 0 || wall <= 0 {
		return 0
	}
	return float64(rows) / wall.Seconds()
}

// Manifest records what a fleet run or sweep did: the options that
// parameterized it, the worker count, wall time, and every unit's
// accounting, section by section. It is the run's provenance document;
// rows themselves go to sinks.
type Manifest struct {
	Format             string  `json:"format"`
	Seed               int64   `json:"seed"`
	SessionDurationSec float64 `json:"session_duration_sec"`
	OptionReps         int     `json:"option_reps"`
	Workers            int     `json:"workers"`
	WallMs             float64 `json:"wall_ms"`
	// Rows is the total row count the run emitted; RowsPerSec is that
	// total over the run's elapsed wall time.
	Rows       int               `json:"rows"`
	RowsPerSec float64           `json:"rows_per_sec"`
	Sections   []SectionManifest `json:"sections"`
	// Failures details every failed unit: error, captured panic stack,
	// attempt count (1). Interrupted (skipped) units are not failures.
	Failures []UnitFailure `json:"failures,omitempty"`
	// Interrupted marks a run that drained early (signal or abort); its
	// journal, if any, makes it resumable.
	Interrupted bool `json:"interrupted,omitempty"`
	// Resumed counts units served from the checkpoint journal.
	Resumed int `json:"resumed,omitempty"`
	// Checkpoint is the journal directory the run wrote, when one was set.
	Checkpoint string   `json:"checkpoint,omitempty"`
	Errors     []string `json:"errors,omitempty"`
	// HotSites ranks the run's busiest scheduling sites when it profiled
	// (Options.ProfDir): merged deterministic event counts, plus wall CPU.
	// Set by the caller from MergeProfiles after the run completes.
	HotSites []HotSite `json:"hot_sites,omitempty"`
}

// ManifestFormat identifies the manifest schema version. /2 added the
// run-level rows/rows_per_sec totals; /3 added the failures section and
// the interrupted/resumed/checkpoint resume fields; /4 made runs and
// sweeps share one schema: sections of units, each unit by key and label.
const ManifestFormat = "telepresence-fleet/4"

// NewManifest builds the provenance record for a completed run or sweep
// from its unit results (RunStream or RunSweepStream), grouping
// consecutive units of one section.
func NewManifest(opts core.Options, workers int, wall time.Duration, results []UnitResult) Manifest {
	n, normErr := opts.Normalize()
	if normErr == nil {
		opts = n
	}
	m := Manifest{
		Format:             ManifestFormat,
		Seed:               opts.Seed,
		SessionDurationSec: float64(opts.SessionDuration) / float64(simtime.Second),
		OptionReps:         opts.Reps,
		Workers:            workers,
		WallMs:             float64(wall) / float64(time.Millisecond),
	}
	if normErr != nil {
		// Invalid options used to be silently masked here; record them so
		// the manifest never misdescribes the run it documents.
		m.Errors = append(m.Errors, fmt.Sprintf("options: %v", normErr))
	}
	for i, r := range results {
		if i == 0 || r.Section != results[i-1].Section {
			m.Sections = append(m.Sections, SectionManifest{Name: r.Section})
		}
		s := &m.Sections[len(m.Sections)-1]
		u := UnitManifest{
			Key:      r.Key,
			Label:    r.Label,
			Rows:     r.Rows,
			WallMs:   float64(r.Wall) / float64(time.Millisecond),
			Attempts: r.Attempts,
			Resumed:  r.Resumed,
		}
		if r.Resumed {
			m.Resumed++
		}
		if errors.Is(r.Err, ErrInterrupted) {
			m.Interrupted = true
			u.Skipped = true
		} else if r.Err != nil {
			m.Failures = append(m.Failures, UnitFailure{
				Unit: r.Key, Error: r.Err.Error(), Stack: r.Stack, Attempts: r.Attempts,
			})
		}
		s.Rows += r.Rows
		m.Rows += r.Rows
		s.Units = append(s.Units, u)
	}
	m.RowsPerSec = rowsPerSec(m.Rows, wall)
	return m
}
