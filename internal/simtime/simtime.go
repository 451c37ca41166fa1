// Package simtime provides a deterministic virtual clock and a
// discrete-event scheduler. Every simulated subsystem in this repository
// (network links, codecs, render loops) advances on this clock rather than
// the wall clock, so experiments are exactly reproducible from a seed.
//
// The scheduler has three entry points: At (a closure at an absolute
// time), AtArg (a function plus argument) and NewTicker (a periodic
// callback). Each takes the SiteID of its scheduling site, interned once
// with Site, so an installed Probe can attribute every event it sees.
// Relative delays are written At(s.Now().Add(d), ...).
//
// The scheduler is built for an allocation-free steady state: event nodes
// are pooled and recycled after they fire, hot callers can schedule a
// package-level function plus argument (AtArg) instead of a fresh closure,
// and Ticker allocates its trampoline closure once, not per tick.
package simtime

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds since the start of the
// simulation. It is deliberately a distinct type from time.Time so that
// wall-clock values cannot leak into simulated code paths.
type Time int64

// Duration re-exports time.Duration for convenience; virtual durations use
// the same unit (nanoseconds) as real ones.
type Duration = time.Duration

// Common duration constants, re-exported so callers need not import time.
const (
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Never is a sentinel Time later than every reachable simulation instant.
const Never = Time(math.MaxInt64)

// SiteID names a scheduling site: a stable label ("netem.deliver",
// "vca/recovery.scan") interned on one scheduler via Site. Site 0 is the
// empty name, the unlabeled site; production callers always pass an
// interned name. IDs are scheduler-local: the same name may intern to
// different IDs on different schedulers, so cross-run aggregation must key
// on SiteName, never on the raw ID.
type SiteID uint32

// Probe observes event execution. EventStart fires after the clock has
// advanced to the event's timestamp and before its callback runs; EventEnd
// fires after the callback returns. Probes observe but never steer: a
// scheduler with a nil probe behaves identically (and its dispatch path
// allocates nothing). Callbacks are not re-entered — Step is single-
// threaded and never recursive — so EventStart/EventEnd calls are strictly
// paired and never nest.
type Probe interface {
	EventStart(site SiteID, now Time)
	EventEnd(site SiteID)
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the virtual time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("t+%.3fs", t.Seconds()) }

// event is a pooled scheduler node. Events fire in timestamp order; ties are
// broken by scheduling order (FIFO), which keeps runs deterministic. Nodes
// are recycled once popped, so external code only ever holds a Handle.
type event struct {
	at  Time
	run func()
	// runArg+arg is the closure-free variant: a long-lived function pointer
	// applied to a per-event argument (typically a pooled struct pointer).
	runArg   func(any)
	arg      any
	seq      uint64
	index    int // heap index; -1 once popped
	gen      uint32
	site     SiteID
	canceled bool
}

// Handle refers to a scheduled event. The zero Handle is valid and inert.
// Handles stay safe after the event has fired or been cancelled: the node is
// recycled under a new generation, so a stale Cancel is a no-op.
type Handle struct {
	e   *event
	gen uint32
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired (or was already cancelled, or a zero Handle) is a no-op.
func (h Handle) Cancel() {
	if h.e != nil && h.e.gen == h.gen {
		h.e.canceled = true
	}
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Scheduler is a single-threaded discrete-event simulator. The zero value is
// ready to use. Schedulers are not safe for concurrent use; simulations in
// this repository are single-goroutine by design.
type Scheduler struct {
	now    Time
	queue  eventHeap
	seq    uint64
	nsteps uint64
	free   []*event

	probe Probe
	// Site interning: siteNames[id] is the label, siteIDs its inverse. The
	// map is lookup-only after interning (never ranged), so iteration order
	// cannot leak into behavior.
	siteNames []string
	siteIDs   map[string]SiteID
}

// NewScheduler returns a scheduler whose clock starts at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Steps reports how many events have been executed so far.
func (s *Scheduler) Steps() uint64 { return s.nsteps }

// Pending reports how many events are queued (including cancelled ones that
// have not yet been reaped).
func (s *Scheduler) Pending() int { return len(s.queue) }

// SetProbe installs (or, with nil, removes) the execution probe. Probes
// observe every subsequently executed event; installing one mid-run is
// safe but misses events already fired.
func (s *Scheduler) SetProbe(p Probe) { s.probe = p }

// Site interns a scheduling-site label and returns its scheduler-local ID.
// Interning the same name twice returns the same ID. Interning is a setup-
// time operation (it may allocate); hot paths should intern once and reuse
// the SiteID.
func (s *Scheduler) Site(name string) SiteID {
	if s.siteIDs == nil {
		s.siteIDs = make(map[string]SiteID, 16)
		s.siteNames = append(s.siteNames, "") // SiteID 0: the unlabeled site
		s.siteIDs[""] = 0
	}
	if id, ok := s.siteIDs[name]; ok {
		return id
	}
	id := SiteID(len(s.siteNames))
	s.siteNames = append(s.siteNames, name)
	s.siteIDs[name] = id
	return id
}

// SiteName returns the label interned for id ("" for the unlabeled site or
// an ID this scheduler never issued).
func (s *Scheduler) SiteName(id SiteID) string {
	if int(id) < len(s.siteNames) {
		return s.siteNames[id]
	}
	return ""
}

// NumSites reports how many site IDs this scheduler has issued (including
// the implicit unlabeled site once anything has been interned).
func (s *Scheduler) NumSites() int { return len(s.siteNames) }

func (s *Scheduler) alloc(at Time, site SiteID) *event {
	if at < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v which is before now %v", at, s.now))
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{}
	}
	e.at = at
	e.site = site
	e.seq = s.seq
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// recycle returns a popped node to the pool under a fresh generation, so
// stale Handles can never touch its next occupant.
func (s *Scheduler) recycle(e *event) {
	e.gen++
	e.run = nil
	e.runArg = nil
	e.arg = nil
	e.site = 0
	e.canceled = false
	s.free = append(s.free, e)
}

// At schedules fn to run at the absolute virtual time at, attributed to
// site: the installed Probe (if any) charges the event's execution to it.
// Scheduling in the past panics: that is always a logic error in a
// discrete-event simulation. To schedule d from now, pass s.Now().Add(d).
func (s *Scheduler) At(at Time, site SiteID, fn func()) Handle {
	e := s.alloc(at, site)
	e.run = fn
	return Handle{e: e, gen: e.gen}
}

// AtArg schedules fn(arg) at the absolute virtual time at, attributed to
// site. Unlike At, the hot path allocates nothing when fn is a
// package-level function and arg is a pointer (pointers box into an
// interface without allocating), which makes it the scheduling primitive
// for per-packet work.
func (s *Scheduler) AtArg(at Time, site SiteID, fn func(any), arg any) Handle {
	e := s.alloc(at, site)
	e.runArg = fn
	e.arg = arg
	return Handle{e: e, gen: e.gen}
}

// Step executes the single next event, advancing the clock to its timestamp.
// It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*event)
		if e.canceled {
			s.recycle(e)
			continue
		}
		s.now = e.at
		s.nsteps++
		run, runArg, arg, site := e.run, e.runArg, e.arg, e.site
		// Recycle before running: the callback may schedule again and reuse
		// this very node; its Handle generation is already retired.
		s.recycle(e)
		if p := s.probe; p != nil {
			p.EventStart(site, s.now)
			if runArg != nil {
				runArg(arg)
			} else {
				run()
			}
			p.EventEnd(site)
			return true
		}
		if runArg != nil {
			runArg(arg)
		} else {
			run()
		}
		return true
	}
	return false
}

// RunUntil executes events until the queue is empty or the next event is
// after deadline. The clock is left at the later of its current value and
// deadline (a drained queue still advances the clock, so periodic metrics
// windows line up).
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.queue) > 0 {
		// Peek: queue[0] is the earliest event.
		next := s.queue[0]
		if next.canceled {
			s.recycle(heap.Pop(&s.queue).(*event))
			continue
		}
		if next.at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// Run executes every pending event until the queue drains. Use with care:
// simulations with self-rescheduling loops (render loops, periodic senders)
// never drain and must use RunUntil.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// Ticker invokes fn every interval until stop is called, starting one
// interval from now. It is the building block for frame loops and periodic
// probes. A ticker allocates its trampoline once at construction; each tick
// then reuses a pooled scheduler node, so steady-state ticking is
// allocation-free.
//
// Reentrancy contract (relied on by profiler probes, which assume strictly
// paired, non-nested EventStart/EventEnd):
//   - fn runs inside Step, never recursively: a tick callback that creates
//     another Ticker or schedules more events only enqueues them — nothing
//     fires until the current callback returns.
//   - Stop from inside fn takes effect immediately: the tick in progress
//     completes, no further tick is scheduled, and Stop is idempotent
//     (Stop-then-Stop, or Stop racing a cancelled-but-unreaped node, is a
//     no-op).
type Ticker struct {
	s        *Scheduler
	interval Duration
	fn       func(Time)
	run      func() // allocated once; rescheduled every tick
	h        Handle
	site     SiteID
	stopped  bool
}

// NewTicker schedules fn to run every interval on s, starting one interval
// from now; every tick is attributed to site. fn receives the virtual time
// of each tick.
func NewTicker(s *Scheduler, interval Duration, site SiteID, fn func(Time)) *Ticker {
	if interval <= 0 {
		panic("simtime: non-positive ticker interval")
	}
	t := &Ticker{s: s, interval: interval, fn: fn, site: site}
	t.run = func() {
		if t.stopped {
			return
		}
		t.fn(t.s.now)
		if !t.stopped {
			t.h = t.s.At(t.s.now.Add(t.interval), t.site, t.run)
		}
	}
	t.h = s.At(s.now.Add(interval), site, t.run)
	return t
}

// Stop cancels the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.h.Cancel()
}
