package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"telepresence/internal/fleet"
)

// childReport is what one pass child tells the parent: unit-granular spans
// taken by a fleet.Monitor, summed over every run call of the pass.
type childReport struct {
	// FirstDispatchNs is the wall clock (Unix ns) of the first
	// EventUnitDispatched; the parent subtracts its own start stamp.
	FirstDispatchNs int64 `json:"first_dispatch_ns"`
	Units           int   `json:"units"`
	Attempts        int   `json:"attempts"`
	Failed          int   `json:"failed"`
	Rows            int   `json:"rows"`
	JournalHits     int   `json:"journal_hits"`
	// QueueWaitNs sums dispatch to first attempt; ReorderWaitNs sums unit
	// done to rows emitted; IdleWorkerNs is workers x run wall minus busy.
	QueueWaitNs   int64 `json:"queue_wait_ns"`
	ReorderWaitNs int64 `json:"reorder_wait_ns"`
	IdleWorkerNs  int64 `json:"idle_worker_ns"`
	WindowPeak    int   `json:"window_peak"`
	// PeakRSS is the process's resident-set high-water mark in bytes.
	PeakRSS int64 `json:"peak_rss"`
	// UnitWallNs holds EventUnitDone.Wall of every unit, in completion
	// order; BusyNs sums it per experiment or sweep target.
	UnitWallNs []int64          `json:"unit_wall_ns"`
	BusyNs     map[string]int64 `json:"busy_ns"`
	Err        string           `json:"err,omitempty"`
}

// spans is the child's fleet.Monitor. Events arrive from the dispatcher,
// every worker and the collector, so every field is guarded by mu.
type spans struct {
	mu      sync.Mutex
	workers int
	// probe ends the process at the first dispatch, after printing the
	// report: a set-up-only run.
	probe io.Writer

	rep        childReport
	runStart   time.Time
	runBusy    int64
	dispatched []time.Time
	done       []time.Time
}

func (s *spans) Event(ev fleet.MonitorEvent) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case fleet.EventRunStarted:
		s.runStart, s.runBusy = now, 0
		s.dispatched = make([]time.Time, ev.Units)
		s.done = make([]time.Time, ev.Units)
	case fleet.EventUnitDispatched:
		s.dispatched[ev.Unit] = now
		if s.rep.FirstDispatchNs == 0 {
			s.rep.FirstDispatchNs = now.UnixNano()
			if s.probe != nil {
				json.NewEncoder(s.probe).Encode(s.rep)
				os.Exit(0)
			}
		}
	case fleet.EventAttemptStarted:
		s.rep.Attempts++
		if ev.Attempt == 1 {
			s.rep.QueueWaitNs += now.Sub(s.dispatched[ev.Unit]).Nanoseconds()
		}
	case fleet.EventJournalHit:
		s.rep.JournalHits++
	case fleet.EventUnitDone:
		if ev.Err != nil {
			s.rep.Failed++
			if s.rep.Err == "" {
				s.rep.Err = ev.Err.Error()
			}
		}
		s.rep.Units++
		s.done[ev.Unit] = now
		w := ev.Wall.Nanoseconds()
		s.runBusy += w
		s.rep.UnitWallNs = append(s.rep.UnitWallNs, w)
		s.rep.BusyNs[unitGroup(ev.Key)] += w
	case fleet.EventRowsEmitted:
		s.rep.Rows += ev.Rows
		if t := s.done[ev.Unit]; !t.IsZero() {
			s.rep.ReorderWaitNs += now.Sub(t).Nanoseconds()
		}
	case fleet.EventWindow:
		if n := ev.InFlight + ev.Buffered; n > s.rep.WindowPeak {
			s.rep.WindowPeak = n
		}
	case fleet.EventRunDone:
		wall := now.Sub(s.runStart).Nanoseconds()
		if idle := int64(s.workers)*wall - s.runBusy; idle > 0 {
			s.rep.IdleWorkerNs += idle
		}
	}
}

// unitGroup maps a unit key ("run/fig4/rep0", "sweep/handover/delay_ms=0")
// to its experiment or sweep target.
func unitGroup(key string) string {
	parts := strings.SplitN(key, "/", 3)
	if len(parts) < 2 {
		return key
	}
	return parts[1]
}

// childFlags are the flags the parent passes a pass child.
type childFlags struct {
	workload, dir, journal             string
	seed                               int64
	resume, prof, probe, verify, short bool
}

// childMain runs one pass of a workload and prints its childReport. It is
// the re-exec target of the parent; see spawn.
func childMain(args []string, stdout io.Writer) int {
	var f childFlags
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload name")
	fs.Int64Var(&f.seed, "seed", 1, "workload seed")
	fs.StringVar(&f.dir, "dir", "", "output directory")
	fs.StringVar(&f.journal, "journal", "", "checkpoint journal directory")
	fs.BoolVar(&f.resume, "resume", false, "serve units from the journal")
	fs.BoolVar(&f.prof, "prof", false, "attach vprof per cell and a CPU profile")
	fs.BoolVar(&f.probe, "probe", false, "exit at the first dispatch")
	fs.BoolVar(&f.verify, "verify", false, "run the workload's verify experiments whole at the golden options")
	fs.BoolVar(&f.short, "short", false, "shrunk grids")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runChild(f, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

func runChild(f childFlags, stdout io.Writer) error {
	w, err := findWorkload(f.workload, f.short)
	if err != nil {
		return err
	}
	opts := w.opts(f.seed)
	if f.verify {
		exps, err := fleet.Select(w.verify...)
		if err != nil {
			return err
		}
		w = workload{exps: exps, workers: w.workers}
		opts = goldenOpts(f.seed)
	}
	workers := w.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sp := &spans{workers: workers, rep: childReport{BusyNs: map[string]int64{}}}
	if f.probe {
		sp.probe = stdout
	}
	cfg := fleet.Config{Workers: workers, Monitor: sp}
	if f.journal != "" {
		j, err := fleet.OpenJournal(f.journal)
		if err != nil {
			return err
		}
		cfg.Checkpoint, cfg.Resume = j, f.resume
	}
	if f.prof {
		opts.ProfDir = filepath.Join(f.dir, "vprof")
		if err := os.MkdirAll(opts.ProfDir, 0o755); err != nil {
			return err
		}
		pf, err := os.Create(filepath.Join(f.dir, "cpu.pprof"))
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	runErr := w.runPass(opts, cfg, f.dir)
	sp.mu.Lock()
	rep := sp.rep
	sp.mu.Unlock()
	if runErr != nil && rep.Err == "" {
		rep.Err = runErr.Error()
	}
	if rep.PeakRSS, err = peakRSS(); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// peakRSS reads the resident-set high-water mark (VmHWM) of this process.
// The max RSS in a waited-for child's rusage is no substitute: Linux starts
// it at the parent's high-water mark when the child execs.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
