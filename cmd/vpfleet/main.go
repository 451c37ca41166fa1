// Command vpfleet drives the experiment fleet: it lists the registered
// experiments and runs any subset (or the whole suite) concurrently,
// sharding each experiment's repetitions across a bounded worker pool and
// writing per-experiment JSONL or CSV plus a run manifest. The sweep
// subcommand runs a cartesian parameter grid over one registered sweep
// target (the scenario experiments' schedule parameters), sharding grid
// cells across the same kind of pool.
//
// Results are deterministic: for a fixed seed, `run all -workers 8`
// produces byte-identical experiment output to `-workers 1`, and the same
// holds for every sweep grid (cell seeds derive from the cell's parameter
// values, never its grid position or worker).
//
// The fleet is fault tolerant (see DESIGN.md "Fault tolerance"): rows
// stream to disk as cells complete, a panicking, failing or hung
// (-cell-timeout) cell is isolated as one failed cell without stopping
// the run, and completed cells checkpoint to a journal (-checkpoint DIR)
// that a later invocation resumes (-resume). Cells are pure, so none is
// retried: it would fail the same way again. SIGINT or SIGTERM drains
// gracefully: in-flight cells finish and journal, the manifest marks the
// run resumable, and vpfleet exits 3.
//
// Exit codes: 0 success; 1 one or more cells (or claims) failed; 2 usage error
// (bad flags, unknown experiment or target); 3 interrupted but resumable.
//
// The trace subcommand introspects session traces: scenario cells write
// per-session event traces (-trace DIR) and metrics timeseries
// (-metrics DIR), and `trace summarize` validates a trace file against the
// event schema and prints a per-link/per-stream timeline report.
//
// A running fleet is live-observable (see DESIGN.md "Live observability"):
// `vpfleet serve -addr :8090 run|sweep ...` executes the fleet while
// serving GET /api/runs, /api/runs/{id}, /api/runs/{id}/rows (NDJSON
// tail-follow of the sink stream), /metrics (Prometheus text) and
// /debug/pprof over HTTP, and `-progress` renders a single-line live
// terminal view (cells done/total, failures, rows/sec, ETA).
// Both views read one Monitor — they can never disagree — and neither
// changes a single emitted row byte.
//
// The prof subcommand introspects virtual-time profiles (see DESIGN.md
// "Virtual-time profiling"): scenario cells profiled with -vprof DIR write
// per-cell deterministic site reports (.vprof.jsonl) and pprof exports
// (.vprof.pb.gz, openable with `go tool pprof`), the run merges them and
// ranks hot_sites into its manifest, and `prof top`/`prof merge` rank and
// combine profile files after the fact.
//
// `vpfleet claims <outdir>` checks the rows a run wrote against the
// paper's numbers (internal/claims), entry by entry, and exits 1 if any
// entry fails. `vpfleet claims -diff <old> <new>` evaluates two run
// directories side by side, lists the experiments whose rows differ, and
// exits 1 if any entry's pass/fail changed.
//
// Run `vpfleet` with no arguments (or any malformed invocation) for the
// full usage listing — usage() below enumerates every subcommand and the
// shared flag set in one place.
//
// Examples:
//
//	vpfleet run all -workers 8
//	vpfleet run fig5 fig7 -seed 7 -format csv -out results/
//	vpfleet run all -workers 1 -cpuprofile cpu.out -memprofile mem.out
//	vpfleet sweep handover -axis delay_ms=0,100,250,500,1000 -workers 8
//	vpfleet sweep burstloss -axis p_good_bad=0.01,0.05 -checkpoint ck/
//	vpfleet sweep burstloss -axis p_good_bad=0.01,0.05 -checkpoint ck/ -resume
//	vpfleet run all -cell-timeout 5m
//	vpfleet serve -addr :8090 sweep handover -axis delay_ms=0,100,250
//	vpfleet run all -progress -workers 8
//	vpfleet sweep burstloss -axis loss_bad=0.3,0.6 -vprof prof/
//	vpfleet prof top prof/merged.vprof.pb.gz
//	vpfleet prof merge -out merged/ prof/*.vprof.jsonl
//	vpfleet run fig5 mesh keypoints -seed 3 -out claims/ && vpfleet claims claims/
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	tp "telepresence"
	"telepresence/internal/claims"
	"telepresence/internal/fleetobs"
)

// Exit codes, distinct per failure class so scripts and CI can tell a
// broken run from an interrupted-but-resumable one.
const (
	exitOK          = 0
	exitFailures    = 1 // one or more cells failed, or a claim failed
	exitUsage       = 2 // bad flags, unknown command/experiment/target
	exitInterrupted = 3 // gracefully drained; resume with -checkpoint/-resume
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		list()
	case "run":
		runCmd(os.Args[2:], nil)
	case "sweep":
		sweepCmd(os.Args[2:], nil)
	case "serve":
		serveCmd(os.Args[2:])
	case "trace":
		traceCmd(os.Args[2:])
	case "prof":
		profCmd(os.Args[2:])
	case "claims":
		claimsCmd(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "vpfleet: unknown command %q\n\n", os.Args[1])
		usage()
	}
}

// usage enumerates every subcommand in one place; subcommand handlers fall
// back here on any malformed invocation, so this listing is the single
// source of CLI truth.
func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  vpfleet list                                 list experiments and sweep targets
  vpfleet run all|<name>...                    run experiments on a worker pool
  vpfleet sweep <target> -axis name=v1,v2,...  run a parameter grid over one target
  vpfleet serve [-addr ADDR] run|sweep <args>  run/sweep with live HTTP introspection
  vpfleet trace summarize <file.trace.jsonl>   validate and report session traces
  vpfleet trace schema                         print the trace event schema
  vpfleet prof top [-n N] <profile>...         rank a profile's hottest sites
  vpfleet prof merge [-out DIR] <profile>...   merge profiles into run-level artifacts
  vpfleet claims <outdir>                      check a run's JSONL rows against the paper's claims
  vpfleet claims -diff <old> <new>             compare two runs' claims and changed rows

run and sweep share the flags:
  [-seed N] [-full] [-workers N] [-out DIR] [-format jsonl|csv]
  [-checkpoint DIR] [-resume] [-cell-timeout D] [-trace DIR]
  [-metrics DIR] [-vprof DIR] [-progress]
run additionally takes [-cpuprofile FILE] [-memprofile FILE].

-vprof DIR writes per-cell virtual-time profiles (<cell>.vprof.jsonl
deterministic site counters, <cell>.vprof.pb.gz pprof with wall CPU),
merges them after the run, and ranks hot_sites into the manifest; prof
top/merge accept both formats (.jsonl by extension, pprof otherwise).

serve executes the run/sweep while exposing live introspection over HTTP:
GET /api/runs, /api/runs/{id}, /api/runs/{id}/rows (NDJSON tail),
/metrics (Prometheus text), /debug/pprof. -progress renders a live
terminal line.

exit codes: 0 ok; 1 cell or claim failures; 2 usage; 3 interrupted (resumable)`)
	os.Exit(exitUsage)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vpfleet:", err)
	os.Exit(exitFailures)
}

// failUsage reports a bad invocation (unknown name, malformed spec) and
// exits with the usage code, keeping exit 1 for genuine run failures.
func failUsage(err error) {
	fmt.Fprintln(os.Stderr, "vpfleet:", err)
	os.Exit(exitUsage)
}

func list() {
	fmt.Printf("%-10s %-5s %s\n", "name", "reps", "description")
	for _, e := range tp.Experiments() {
		fmt.Printf("%-10s %-5d %s\n", e.Name, e.Reps(tp.Quick(1)), e.Desc)
	}
	fmt.Printf("\nsweep targets (vpfleet sweep <target> -axis name=v1,v2,...):\n")
	fmt.Printf("%-10s %-40s %s\n", "target", "parameters (default)", "description")
	for _, t := range tp.SweepTargets() {
		params := make([]string, len(t.Params))
		for i, p := range t.Params {
			params[i] = fmt.Sprintf("%s (%g)", p.Name, p.Default)
		}
		fmt.Printf("%-10s %-40s %s\n", t.Name, strings.Join(params, ", "), t.Desc)
	}
}

// commonFlags holds the flags and parsing behavior the run and sweep
// subcommands share: scale/seed/pool/output options, the fault-tolerance
// knobs, and the peeling Parse loop that accepts bare names and flags in
// any order.
type commonFlags struct {
	fs          *flag.FlagSet
	seed        *int64
	full        *bool
	workers     *int
	out         *string
	format      *string
	trace       *string
	metrics     *string
	vprof       *string
	checkpoint  *string
	resume      *bool
	cellTimeout *time.Duration
	progress    *bool

	// serveLis is the pre-bound introspection listener in serve mode
	// (serveCmd binds before delegating, so a bad -addr is a usage error
	// before any work starts); nil for plain run/sweep.
	serveLis net.Listener
}

func newCommonFlags(name string) *commonFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &commonFlags{
		fs:          fs,
		seed:        fs.Int64("seed", 1, "experiment seed"),
		full:        fs.Bool("full", false, "paper-scale runs (120 s sessions, 5 reps); slow"),
		workers:     fs.Int("workers", 0, "worker pool size (0 = all CPUs)"),
		out:         fs.String("out", "fleet-out", "output directory"),
		format:      fs.String("format", "jsonl", "row format: jsonl or csv"),
		trace:       fs.String("trace", "", "write per-cell session event traces (JSONL) to this directory"),
		metrics:     fs.String("metrics", "", "write per-cell metrics timeseries (CSV) to this directory"),
		vprof:       fs.String("vprof", "", "write per-cell virtual-time profiles (JSONL + pprof) to this directory and merge them after the run"),
		checkpoint:  fs.String("checkpoint", "", "journal completed cells to this directory (enables -resume)"),
		resume:      fs.Bool("resume", false, "skip cells already journaled in -checkpoint DIR"),
		cellTimeout: fs.Duration("cell-timeout", 0, "fail a cell still running after this long (0 = no watchdog)"),
		progress:    fs.Bool("progress", false, "render a single-line live progress view on stderr"),
	}
}

// parseMixed parses args, peeling non-flag arguments (experiment or target
// names) off between Parse calls so "run all -workers 8" reads naturally.
func (c *commonFlags) parseMixed(args []string) (names []string) {
	rest := args
	for {
		c.fs.Parse(rest)
		rest = c.fs.Args()
		if len(rest) == 0 {
			return names
		}
		names = append(names, rest[0])
		rest = rest[1:]
	}
}

// resolve validates the shared flags and materializes the run inputs: the
// effective worker count (recorded in manifests, so the GOMAXPROCS default
// is resolved here), the scaled options, and the created output directory.
func (c *commonFlags) resolve() (workers int, opts tp.Options, outDir, format string) {
	if *c.format != "jsonl" && *c.format != "csv" {
		failUsage(fmt.Errorf("unknown format %q", *c.format))
	}
	if *c.resume && *c.checkpoint == "" {
		failUsage(errors.New("-resume requires -checkpoint DIR"))
	}
	if *c.cellTimeout < 0 {
		failUsage(fmt.Errorf("negative -cell-timeout %v", *c.cellTimeout))
	}
	workers = *c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts = tp.Quick(*c.seed)
	if *c.full {
		opts = tp.Full(*c.seed)
	}
	if err := os.MkdirAll(*c.out, 0o755); err != nil {
		fail(err)
	}
	for _, dir := range []*string{c.trace, c.metrics, c.vprof} {
		if *dir != "" {
			if err := os.MkdirAll(*dir, 0o755); err != nil {
				fail(err)
			}
		}
	}
	opts.TraceDir = *c.trace
	opts.MetricsDir = *c.metrics
	opts.ProfDir = *c.vprof
	return workers, opts, *c.out, *c.format
}

// mergeProfiles merges the per-cell profiles a run left in -vprof DIR into
// merged.vprof.jsonl / merged.vprof.pb.gz and returns the hot-site ranking
// for the manifest; nil when no -vprof was given. A merge failure is
// reported but never turns a successful run into a failed one — profiles
// are provenance, not results.
func (c *commonFlags) mergeProfiles() []tp.FleetHotSite {
	if *c.vprof == "" {
		return nil
	}
	hot, err := tp.FleetMergeProfiles(*c.vprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpfleet: vprof merge:", err)
		return nil
	}
	return hot
}

// fleetConfig assembles the scheduler config from the fault-tolerance
// flags: the per-cell watchdog, the checkpoint journal, and the
// signal-driven interrupt channel. The returned journal is nil when no
// -checkpoint was given.
func (c *commonFlags) fleetConfig(workers int) (tp.FleetConfig, *tp.FleetJournal) {
	cfg := tp.FleetConfig{
		Workers:     workers,
		CellTimeout: *c.cellTimeout,
		Interrupt:   installInterrupt(),
	}
	var journal *tp.FleetJournal
	if *c.checkpoint != "" {
		j, err := tp.OpenFleetJournal(*c.checkpoint)
		if err != nil {
			fail(err)
		}
		journal = j
		cfg.Checkpoint = j
		cfg.Resume = *c.resume
	}
	return cfg, journal
}

// installInterrupt wires SIGINT/SIGTERM to a graceful drain: the first
// signal stops dispatch (in-flight cells finish, journal, and stream; the
// manifest marks the run resumable and vpfleet exits 3); a second signal
// force-quits immediately.
func installInterrupt() <-chan struct{} {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "vpfleet: interrupt — draining in-flight cells (signal again to force quit)")
		close(stop)
		<-sigs
		fmt.Fprintln(os.Stderr, "vpfleet: forced quit")
		os.Exit(exitInterrupted)
	}()
	return stop
}

// serveCmd executes a run or sweep while serving live introspection:
// `vpfleet serve [-addr ADDR] run|sweep <args...>`. The listener binds
// before any work starts, so a bad address is a usage error (exit 2);
// everything after the subcommand is the run/sweep's own argument list,
// and the exit code is the underlying run's. Graceful SIGTERM drain is
// the normal interrupt path: /api/runs/{id} reports "interrupted" while
// in-flight cells finish, and vpfleet exits 3 with a resume hint.
func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "HTTP address for live introspection")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) == 0 {
		usage()
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		failUsage(fmt.Errorf("serve: cannot listen on %q: %v", *addr, err))
	}
	switch rest[0] {
	case "run":
		runCmd(rest[1:], lis)
	case "sweep":
		sweepCmd(rest[1:], lis)
	default:
		fmt.Fprintf(os.Stderr, "vpfleet: serve: unknown subcommand %q (want run or sweep)\n\n", rest[0])
		usage()
	}
}

// obsSession is one CLI run's observability stack: the RunState monitor
// feeding the HTTP server and/or terminal progress line. A nil
// *obsSession is valid and inert (no flags asked for observability).
type obsSession struct {
	state    *fleetobs.RunState
	progress *fleetobs.Progress
}

// attachObs wires the observability requested by the flags into cfg: the
// serve-mode listener (when serveCmd bound one) and/or the -progress
// renderer, both reading one Monitor so the views cannot disagree. Returns
// nil when nothing was requested.
func (c *commonFlags) attachObs(id, kind string, cfg *tp.FleetConfig) *obsSession {
	lis := c.serveLis
	if lis == nil && !*c.progress {
		return nil
	}
	var st *fleetobs.RunState
	if lis != nil {
		reg := fleetobs.NewRegistry()
		st = reg.NewRun(id, kind)
		fleetobs.Serve(lis, reg)
		// The resolved address line is the contract scripts poll for
		// (with -addr 127.0.0.1:0 the port is kernel-assigned).
		fmt.Fprintf(os.Stderr, "vpfleet: serving live introspection on http://%s (run %s)\n", lis.Addr(), id)
	} else {
		st = fleetobs.NewRunState(id, kind)
	}
	cfg.Monitor = st
	s := &obsSession{state: st}
	if *c.progress {
		s.progress = fleetobs.NewProgress(st, os.Stderr)
		s.progress.Start()
	}
	return s
}

// rowTee returns the writer sinks should tee emitted bytes into (the
// run's RowLog), or nil when no observability is attached.
func (s *obsSession) rowTee() io.Writer {
	if s == nil {
		return nil
	}
	return s.state.RowLog()
}

// finish finalizes the live view with the run's outcome and stops the
// progress renderer; tail-following rows clients terminate here.
func (s *obsSession) finish(runErr error, resumeHint string) {
	if s == nil {
		return
	}
	if s.progress != nil {
		s.progress.Stop()
	}
	hint := ""
	if errors.Is(runErr, tp.ErrFleetInterrupted) {
		hint = resumeHint
	}
	s.state.Finish(runErr, hint)
}

// exit maps a run's error to the process exit code: interrupted (and
// therefore resumable) runs exit 3, any other failure exits 1.
func exit(runErr error, journal *tp.FleetJournal, resumeHint string) {
	if runErr == nil {
		os.Exit(exitOK)
	}
	fmt.Fprintln(os.Stderr, "vpfleet:", runErr)
	if errors.Is(runErr, tp.ErrFleetInterrupted) {
		if journal != nil {
			fmt.Fprintf(os.Stderr, "vpfleet: interrupted; resume with: %s\n", resumeHint)
		}
		os.Exit(exitInterrupted)
	}
	os.Exit(exitFailures)
}

// axisFlags collects repeated -axis name=v1,v2,... flags in order.
type axisFlags []tp.SweepAxis

func (a *axisFlags) String() string { return fmt.Sprint(*a) }

func (a *axisFlags) Set(s string) error {
	name, list, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" || list == "" {
		return fmt.Errorf("axis %q not of the form name=v1,v2,...", s)
	}
	var values []float64
	for _, part := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("axis %s: bad value %q", name, part)
		}
		values = append(values, v)
	}
	*a = append(*a, tp.SweepAxis{Name: name, Values: values})
	return nil
}

// traceCmd introspects trace files: `summarize` validates every line
// against the event schema and prints a per-link/per-stream timeline
// report; `schema` prints the schema itself.
func traceCmd(args []string) {
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "schema":
		fmt.Print(tp.TraceSchemaDoc())
	case "summarize":
		if len(args) < 2 {
			usage()
		}
		for i, path := range args[1:] {
			if i > 0 {
				fmt.Println()
			}
			summarizeFile(path)
		}
	default:
		fmt.Fprintf(os.Stderr, "vpfleet: unknown trace subcommand %q\n\n", args[0])
		usage()
	}
}

// summarizeFile validates and reports one trace; any schema violation or
// read error is fatal (non-zero exit), making this the CI smoke check.
func summarizeFile(path string) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	sum, err := tp.SummarizeTrace(f)
	if err != nil {
		fail(fmt.Errorf("summarize %s: %w", path, err))
	}
	fmt.Printf("trace %s\n", path)
	if err := sum.WriteReport(os.Stdout); err != nil {
		fail(err)
	}
}

// profCmd introspects virtual-time profiles: `top` ranks one profile's
// hottest scheduling sites, `merge` sums several profiles into run-level
// artifacts. Both accept the deterministic JSONL reports (.vprof.jsonl)
// and the pprof exports (.vprof.pb.gz / any pprof profile the vprof
// encoder wrote); an unreadable or malformed file is a usage error
// (exit 2).
func profCmd(args []string) {
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "top":
		fs := flag.NewFlagSet("prof top", flag.ExitOnError)
		n := fs.Int("n", 10, "how many sites to rank (0 = all)")
		fs.Parse(args[1:])
		if fs.NArg() == 0 {
			usage()
		}
		for i, path := range fs.Args() {
			if i > 0 {
				fmt.Println()
			}
			r := parseProfFile(path)
			fmt.Printf("profile %s\n", path)
			if err := r.WriteTop(os.Stdout, *n); err != nil {
				fail(err)
			}
		}
	case "merge":
		fs := flag.NewFlagSet("prof merge", flag.ExitOnError)
		out := fs.String("out", ".", "directory for the merged artifacts")
		fs.Parse(args[1:])
		if fs.NArg() == 0 {
			usage()
		}
		reports := make([]*tp.VProfReport, 0, fs.NArg())
		for _, path := range fs.Args() {
			reports = append(reports, parseProfFile(path))
		}
		m := tp.MergeVProfReports(reports...)
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
		jsonlPath := filepath.Join(*out, tp.FleetMergedProfJSONL)
		pprofPath := filepath.Join(*out, tp.FleetMergedProfPprof)
		writeProfArtifact(jsonlPath, m.WriteJSONL)
		writeProfArtifact(pprofPath, func(w io.Writer) error {
			return m.WritePprof(w, time.Now().UnixNano())
		})
		fmt.Printf("merged %d profiles (%d sites, %d events): %s, %s\n",
			len(reports), len(m.Sites), m.TotalEvents, jsonlPath, pprofPath)
	default:
		fmt.Fprintf(os.Stderr, "vpfleet: unknown prof subcommand %q\n\n", args[0])
		usage()
	}
}

// parseProfFile reads one profile, selecting the decoder by extension:
// .jsonl parses as a deterministic site report, anything else as a pprof
// profile. Malformed files are usage errors.
func parseProfFile(path string) *tp.VProfReport {
	f, err := os.Open(path)
	if err != nil {
		failUsage(err)
	}
	defer f.Close()
	var r *tp.VProfReport
	if strings.HasSuffix(path, ".jsonl") {
		r, err = tp.ParseVProfReport(f)
	} else {
		r, err = tp.ParseVProfPprof(f)
	}
	if err != nil {
		failUsage(fmt.Errorf("prof %s: %w", path, err))
	}
	return r
}

// writeProfArtifact writes one merged profile output.
func writeProfArtifact(path string, emit func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := emit(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

// claimsCmd reports the claims table over a run directory's JSONL rows,
// or with -diff compares two run directories. A path that is not a
// directory, or a row file that is not JSONL, is a usage error.
func claimsCmd(args []string) {
	diff := len(args) > 0 && args[0] == "-diff"
	if diff {
		args = args[1:]
	}
	if len(args) != 1 && !(diff && len(args) == 2) {
		usage()
	}
	var rows []claims.Rows
	for _, dir := range args {
		r, err := claims.ReadDir(dir)
		if err != nil {
			failUsage(fmt.Errorf("claims: %w", err))
		}
		rows = append(rows, r)
	}
	var failed int
	var err error
	if diff {
		failed, err = claims.ReportDiff(os.Stdout, rows[0], rows[1])
	} else {
		failed, err = claims.Report(os.Stdout, claims.Evaluate(rows[0]))
	}
	if err != nil {
		fail(err)
	}
	if failed > 0 {
		os.Exit(exitFailures)
	}
}

func sweepCmd(args []string, lis net.Listener) {
	c := newCommonFlags("sweep")
	c.serveLis = lis
	var axes axisFlags
	c.fs.Var(&axes, "axis", "swept parameter as name=v1,v2,... (repeatable)")
	names := c.parseMixed(args)
	if len(names) != 1 {
		usage()
	}
	spec := tp.SweepSpec{Target: names[0], Axes: axes}
	target, ok := tp.LookupSweepTarget(spec.Target)
	if !ok {
		failUsage(fmt.Errorf("unknown sweep target %q (try: list)", spec.Target))
	}
	if err := spec.Validate(); err != nil {
		failUsage(err)
	}
	workers, opts, out, format := c.resolve()
	cfg, journal := c.fleetConfig(workers)
	obs := c.attachObs("sweep-"+spec.Target, "sweep", &cfg)

	path := filepath.Join(out, "sweep-"+spec.Target+"."+format)
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}

	// Rows stream to the file as cells complete (memory is bounded by the
	// reorder window, not the grid); journaled cells replay on -resume.
	start := time.Now()
	results, runErr := tp.FleetRunSweepStream(spec, opts, cfg, newFileSink(f, format, target.Row, obs.rowTee()))
	manifest := tp.NewFleetManifest(opts, workers, time.Since(start), results)
	// Per-target manifest name, so sweeping two targets into one output
	// directory preserves both runs' provenance.
	c.finish(manifest, filepath.Join(out, "sweep-"+spec.Target+"-manifest.json"),
		map[string]string{spec.Target: path}, journal, obs, runErr,
		fmt.Sprintf("vpfleet sweep %s ... -checkpoint %s -resume", spec.Target, *c.checkpoint))
}

func runCmd(args []string, lis net.Listener) {
	c := newCommonFlags("run")
	c.serveLis = lis
	cpuProfile := c.fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := c.fs.String("memprofile", "", "write a heap profile after the run to this file")
	names := c.parseMixed(args)
	if len(names) == 0 {
		usage()
	}
	exps, err := tp.SelectExperiments(names...)
	if err != nil {
		failUsage(err)
	}
	workers, opts, out, format := c.resolve()
	cfg, journal := c.fleetConfig(workers)
	obs := c.attachObs("run", "run", &cfg)

	// Profiling hooks for the hot-path work the ROADMAP tracks. Runner
	// execution carries pprof labels, so samples still attribute to their
	// experiment even though sink I/O overlaps the run.
	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		cpuFile = f
	}

	// One output file per experiment, named by the registry; rows stream
	// as reps complete (memory is bounded by the reorder window).
	files := map[string]string{}
	start := time.Now()
	results, runErr := tp.FleetRunStream(exps, opts, cfg, func(e tp.Experiment) (tp.Sink, error) {
		path := filepath.Join(out, e.Name+"."+format)
		files[e.Name] = path
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		return newFileSink(f, format, e.Row, obs.rowTee()), nil
	})
	manifest := tp.NewFleetManifest(opts, workers, time.Since(start), results)

	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fail(err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	c.finish(manifest, filepath.Join(out, "manifest.json"), files, journal, obs, runErr,
		fmt.Sprintf("vpfleet run %s -checkpoint %s -resume", strings.Join(names, " "), *c.checkpoint))
}

// finish is the tail run and sweep share: it completes the manifest (row
// files, hot sites, journal), writes it to manifestPath, prints one line
// per section, reports the outcome to the live views and exits with the
// run's code (exit prints the failures). files maps each section to its
// row file.
func (c *commonFlags) finish(m tp.FleetManifest, manifestPath string, files map[string]string,
	journal *tp.FleetJournal, obs *obsSession, runErr error, resumeHint string) {
	m.HotSites = c.mergeProfiles()
	for i := range m.Sections {
		m.Sections[i].File = files[m.Sections[i].Name]
	}
	if journal != nil {
		m.Checkpoint = journal.Dir()
	}
	mf, err := os.Create(manifestPath)
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(mf)
	enc.SetIndent("", "  ")
	if err := errors.Join(enc.Encode(m), mf.Close()); err != nil {
		fail(err)
	}

	fmt.Printf("%-10s %-6s %-7s %-9s %s\n", "section", "units", "rows", "wall", "file")
	units := 0
	for _, s := range m.Sections {
		var wallMs float64
		var resumed, skipped int
		for _, u := range s.Units {
			wallMs += u.WallMs
			if u.Resumed {
				resumed++
			}
			if u.Skipped {
				skipped++
			}
		}
		status := s.File
		if resumed > 0 {
			status += fmt.Sprintf(" (%d/%d units resumed)", resumed, len(s.Units))
		}
		if skipped > 0 {
			status += fmt.Sprintf(" (%d/%d units INTERRUPTED)", skipped, len(s.Units))
		}
		fmt.Printf("%-10s %-6d %-7d %-9s %s\n", s.Name, len(s.Units), s.Rows,
			time.Duration(wallMs*float64(time.Millisecond)).Round(time.Millisecond), status)
		units += len(s.Units)
	}
	fmt.Printf("\n%d units in %s (workers=%d); manifest: %s\n",
		units, time.Duration(m.WallMs*float64(time.Millisecond)).Round(time.Millisecond), m.Workers, manifestPath)
	obs.finish(runErr, resumeHint)
	exit(runErr, journal, resumeHint)
}

// newFileSink wraps f in the row sink for format ("csv" or "jsonl",
// validated by resolve), closing the file with the sink. A non-nil tee
// additionally receives every emitted byte (the live rows endpoint);
// the tee is an in-memory ring and never fails, so it cannot affect the
// run's outcome.
func newFileSink(f *os.File, format string, row tp.ExperimentRow, tee io.Writer) tp.Sink {
	var w io.Writer = f
	if tee != nil {
		w = io.MultiWriter(f, tee)
	}
	if format == "csv" {
		return closeSink{tp.NewCSVSink(w, row), f}
	}
	return closeSink{tp.NewJSONLSink(w), f}
}

// closeSink closes the backing file after the row sink finishes.
type closeSink struct {
	tp.Sink
	f *os.File
}

func (c closeSink) Close() error {
	if err := c.Sink.Close(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}

// WriteEntry forwards journal-entry replay to the wrapped sink, keeping
// resumability through the file-closing wrapper.
func (c closeSink) WriteEntry(e *tp.FleetJournalEntry) error {
	es, ok := c.Sink.(tp.EntrySink)
	if !ok {
		return fmt.Errorf("vpfleet: sink %T cannot replay journal entries", c.Sink)
	}
	return es.WriteEntry(e)
}
