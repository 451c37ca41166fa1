// Package fleetobs is the live observability layer over internal/fleet's
// Monitor event bus: a lock-protected RunState aggregator (per-unit
// status, failure ring, rows/sec EWMA), an HTTP server exposing
// manifest-shaped run JSON, NDJSON row tailing, Prometheus metrics and
// pprof, and a single-line terminal progress renderer. Everything here
// observes and never steers — detaching the whole package changes no
// emitted row byte (pinned by the fleet's monitor tests).
//
// Unlike the simulation packages, fleetobs deliberately reads the wall
// clock (EWMA rates, uptime) and uses encoding/json for API responses;
// internal/lint's DefaultConfig records both exemptions.
package fleetobs

import (
	"errors"
	"math"
	"sync"
	"time"

	"telepresence/internal/fleet"
)

// Unit status values reported by RunState snapshots.
const (
	StatusPending = "pending" // not yet dispatched
	StatusRunning = "running" // dispatched or executing
	StatusResumed = "resumed" // served from the checkpoint journal
	StatusDone    = "done"    // success
	StatusFailed  = "failed"  // error, panic or watchdog timeout
	StatusSkipped = "skipped" // never started: interrupted, resumable
)

// Run-level state values.
const (
	RunPending     = "pending"
	RunRunning     = "running"
	RunInterrupted = "interrupted"
	RunDone        = "done"
	RunFailed      = "failed"
)

// failureRingCap bounds the failure ring buffer; FailuresTotal keeps the
// true count when the ring wraps.
const failureRingCap = 32

// ewma is an irregular-interval exponentially-weighted rate estimator
// (events per second). Samples accumulate until enough wall time has
// passed to form a stable instantaneous rate, then blend with weight
// 1-exp(-dt/tau). Not safe for concurrent use; RunState's lock guards it.
type ewma struct {
	tau     time.Duration
	last    time.Time
	pending float64
	rate    float64
	primed  bool
}

// minEwmaInterval is the shortest interval folded into the rate; bursts
// inside it accumulate so a pile of sub-millisecond events cannot spike
// the estimate.
const minEwmaInterval = 50 * time.Millisecond

func (e *ewma) add(n float64, now time.Time) {
	if !e.primed {
		e.primed = true
		e.last = now
	}
	e.pending += n
	e.fold(now)
}

// fold blends accumulated samples into the rate once the interval is long
// enough to be meaningful.
func (e *ewma) fold(now time.Time) {
	dt := now.Sub(e.last)
	if dt < minEwmaInterval {
		return
	}
	inst := e.pending / dt.Seconds()
	w := 1 - math.Exp(-float64(dt)/float64(e.tau))
	if e.rate == 0 {
		e.rate = inst
	} else {
		e.rate = w*inst + (1-w)*e.rate
	}
	e.pending = 0
	e.last = now
}

func (e *ewma) value(now time.Time) float64 {
	e.fold(now)
	return e.rate
}

// unitRec is one unit's live record.
type unitRec struct {
	key      string
	status   string
	attempts int
	rows     int
	wall     time.Duration
	errText  string
}

// UnitView is the JSON shape of one unit in a detailed run snapshot.
type UnitView struct {
	Index    int     `json:"index"`
	Key      string  `json:"key"`
	Status   string  `json:"status"`
	Attempts int     `json:"attempts,omitempty"`
	Rows     int     `json:"rows,omitempty"`
	WallMs   float64 `json:"wall_ms,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// Failure mirrors fleet.UnitFailure for the live failure ring.
type Failure struct {
	Unit     string `json:"unit"`
	Error    string `json:"error"`
	Stack    string `json:"stack,omitempty"`
	Attempts int    `json:"attempts"`
}

// Snapshot is the manifest-shaped live view of a run, served by
// /api/runs and /api/runs/{id}. Counter semantics match the written
// manifest: Rows counts rows past ordered emission, JournalHits equals
// the manifest's resumed count, Failures lists terminal unit failures.
type Snapshot struct {
	ID        string  `json:"id"`
	Kind      string  `json:"kind"` // "run" or "sweep"
	State     string  `json:"state"`
	StartedAt string  `json:"started_at"`
	UptimeSec float64 `json:"uptime_sec"`

	Units       int `json:"units"`
	Dispatched  int `json:"dispatched"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Skipped     int `json:"skipped"`
	JournalHits int `json:"journal_hits"`

	Rows     int64 `json:"rows"`
	Panics   int64 `json:"panics"`
	Timeouts int64 `json:"timeouts"`

	InFlight   int     `json:"in_flight"`
	Buffered   int     `json:"buffered"`
	RowsPerSec float64 `json:"rows_per_sec"`
	EtaSec     float64 `json:"eta_sec,omitempty"`

	Interrupted   bool      `json:"interrupted,omitempty"`
	ResumeHint    string    `json:"resume_hint,omitempty"`
	Error         string    `json:"error,omitempty"`
	FailuresTotal int       `json:"failures_total"`
	Failures      []Failure `json:"failures,omitempty"`

	// UnitViews is the per-unit detail, present only on /api/runs/{id}.
	UnitViews []UnitView `json:"unit_views,omitempty"`
}

// RunState aggregates one run's Monitor events into a live, queryable
// view. It implements fleet.Monitor; all methods are safe for concurrent
// use (the engine publishes from the dispatcher, every worker, and the
// collector).
type RunState struct {
	id   string
	kind string
	now  func() time.Time // injectable for tests
	log  *RowLog

	mu          sync.Mutex
	started     time.Time
	state       string
	units       []unitRec
	total       int
	dispatched  int
	done        int
	failed      int
	skipped     int
	journalHits int
	rows        int64
	panics      int64
	timeouts    int64
	inFlight    int
	buffered    int
	interrupted bool
	resumeHint  string
	finalErr    string
	failures    []Failure // ring, newest last, capped at failureRingCap
	failTotal   int
	rowsRate    ewma
	unitsRate   ewma
}

// NewRunState returns a pending RunState identified as id ("run",
// "sweep-handover", ...) of the given kind ("run" or "sweep"), with an
// attached RowLog for NDJSON tailing.
func NewRunState(id, kind string) *RunState {
	return &RunState{
		id:        id,
		kind:      kind,
		now:       time.Now,
		log:       NewRowLog(defaultRowLogCap),
		state:     RunPending,
		rowsRate:  ewma{tau: 10 * time.Second},
		unitsRate: ewma{tau: 10 * time.Second},
	}
}

// ID returns the run's registry identity.
func (s *RunState) ID() string { return s.id }

// RowLog returns the run's row tail buffer; tee the sink's writer into it
// to make /api/runs/{id}/rows serve the exact emitted bytes.
func (s *RunState) RowLog() *RowLog { return s.log }

// Event implements fleet.Monitor.
func (s *RunState) Event(ev fleet.MonitorEvent) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case fleet.EventRunStarted:
		s.started = now
		s.state = RunRunning
		s.total = ev.Units
		s.units = make([]unitRec, ev.Units)
		for i := range s.units {
			s.units[i].status = StatusPending
		}
	case fleet.EventUnitDispatched:
		s.dispatched++
		if u := s.unit(ev.Unit); u != nil {
			u.key = ev.Key
			u.status = StatusRunning
		}
	case fleet.EventAttemptStarted:
		if u := s.unit(ev.Unit); u != nil {
			u.key = ev.Key
			u.status = StatusRunning
			u.attempts = ev.Attempt
		}
	case fleet.EventJournalHit:
		s.dispatched++
		s.journalHits++
		if u := s.unit(ev.Unit); u != nil {
			u.key = ev.Key
			u.status = StatusResumed
			u.attempts = ev.Attempt
			u.rows = ev.Rows
		}
	case fleet.EventUnitDone:
		u := s.unit(ev.Unit)
		if u != nil {
			u.key = ev.Key
			u.attempts = ev.Attempt
			u.rows = ev.Rows
			u.wall = ev.Wall
		}
		switch {
		case ev.Err == nil:
			s.done++
			if u != nil {
				u.status = StatusDone
			}
		case errors.Is(ev.Err, fleet.ErrInterrupted):
			s.skipped++
			if u != nil {
				u.status = StatusSkipped
				u.errText = ev.Err.Error()
			}
		default:
			s.failed++
			if ev.Stack != "" {
				s.panics++
			}
			if errors.Is(ev.Err, fleet.ErrUnitTimeout) {
				s.timeouts++
			}
			if u != nil {
				u.status = StatusFailed
				u.errText = ev.Err.Error()
			}
			s.failTotal++
			s.failures = append(s.failures, Failure{
				Unit: ev.Key, Error: ev.Err.Error(), Stack: ev.Stack, Attempts: ev.Attempt,
			})
			if len(s.failures) > failureRingCap {
				s.failures = s.failures[1:]
			}
		}
	case fleet.EventRowsEmitted:
		s.rows += int64(ev.Rows)
		s.rowsRate.add(float64(ev.Rows), now)
		s.unitsRate.add(1, now)
	case fleet.EventWindow:
		s.inFlight = ev.InFlight
		s.buffered = ev.Buffered
	case fleet.EventInterrupted:
		s.interrupted = true
		s.state = RunInterrupted
	case fleet.EventRunDone:
		s.inFlight = 0
		s.buffered = 0
		if ev.Err != nil && s.finalErr == "" {
			s.finalErr = ev.Err.Error()
		}
		if !s.interrupted {
			if s.failed > 0 || ev.Err != nil {
				s.state = RunFailed
			} else {
				s.state = RunDone
			}
		}
	}
}

// unit returns the record for a valid unit index, nil for run-level
// events (Unit == -1) or indices outside the announced universe.
func (s *RunState) unit(i int) *unitRec {
	if i < 0 || i >= len(s.units) {
		return nil
	}
	return &s.units[i]
}

// Finish finalizes the run from the CLI's perspective: the fleet call
// returned err, and resumeHint (when non-empty) tells an interrupted
// run's users how to pick the work back up. Closes the row log so
// tail-followers terminate.
func (s *RunState) Finish(err error, resumeHint string) {
	s.mu.Lock()
	switch {
	case err == nil:
		if s.state != RunInterrupted {
			s.state = RunDone
		}
	case errors.Is(err, fleet.ErrInterrupted):
		s.interrupted = true
		s.state = RunInterrupted
		s.finalErr = err.Error()
	default:
		s.state = RunFailed
		s.finalErr = err.Error()
	}
	if s.interrupted {
		s.resumeHint = resumeHint
	}
	s.mu.Unlock()
	s.log.Close()
}

// Snapshot returns the manifest-shaped live view; detail adds the
// per-unit list.
func (s *RunState) Snapshot(detail bool) Snapshot {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		ID: s.id, Kind: s.kind, State: s.state,
		Units: s.total, Dispatched: s.dispatched,
		Done: s.done, Failed: s.failed, Skipped: s.skipped,
		JournalHits: s.journalHits,
		Rows:        s.rows, Panics: s.panics, Timeouts: s.timeouts,
		InFlight: s.inFlight, Buffered: s.buffered,
		RowsPerSec:    s.rowsRate.value(now),
		Interrupted:   s.interrupted,
		ResumeHint:    s.resumeHint,
		Error:         s.finalErr,
		FailuresTotal: s.failTotal,
	}
	if !s.started.IsZero() {
		snap.StartedAt = s.started.UTC().Format(time.RFC3339)
		snap.UptimeSec = now.Sub(s.started).Seconds()
	}
	completed := s.done + s.failed + s.skipped + s.journalHits
	if s.state == RunRunning {
		if rate := s.unitsRate.value(now); rate > 0 && completed < s.total {
			snap.EtaSec = float64(s.total-completed) / rate
		}
	}
	snap.Failures = append(snap.Failures, s.failures...)
	if detail {
		snap.UnitViews = make([]UnitView, len(s.units))
		for i := range s.units {
			u := &s.units[i]
			snap.UnitViews[i] = UnitView{
				Index: i, Key: u.key, Status: u.status,
				Attempts: u.attempts, Rows: u.rows,
				WallMs: float64(u.wall) / float64(time.Millisecond),
				Error:  u.errText,
			}
		}
	}
	return snap
}

// Progress returns the compact counters the terminal renderer needs:
// completed units (done+failed+skipped+journal hits), the unit universe,
// and the current rates.
func (s *RunState) progressLine(now time.Time) (completed, total int, rows, failed int64, rowsPerSec, etaSec float64, state string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	completed = s.done + s.failed + s.skipped + s.journalHits
	total = s.total
	rows = s.rows
	failed = int64(s.failed)
	rowsPerSec = s.rowsRate.value(now)
	if s.state == RunRunning {
		if rate := s.unitsRate.value(now); rate > 0 && completed < total {
			etaSec = float64(total-completed) / rate
		}
	}
	state = s.state
	return
}
