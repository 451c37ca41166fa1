package core

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"telepresence/internal/geo"
	"telepresence/internal/netem"
	"telepresence/internal/scenario"
	"telepresence/internal/simtime"
	"telepresence/internal/telemetry"
	"telepresence/internal/vca"
	"telepresence/internal/vprof"
)

// ProfJSONLSuffix / ProfPprofSuffix name the two per-cell profile outputs:
// the deterministic JSONL site report and the gzipped pprof profile (which
// additionally carries wall-CPU attribution).
const (
	ProfJSONLSuffix = ".vprof.jsonl"
	ProfPprofSuffix = ".vprof.pb.gz"
)

// cellSetup is the part of a session cell that is its own: called after
// the session is built and before it runs, it binds the cell's schedule,
// caps or samplers and returns the function that turns the finished run
// into the cell's row.
type cellSetup[R any] func(sess *vca.Session, sc vca.SessionConfig) (func(res *vca.Results) R, error)

// runSessionCell runs one session-backed sweep cell: it normalizes opts,
// derives the cell's options from the run seed and the parameter values
// (SweepCellOptions), builds the session config, attaches the cell's
// telemetry and profiler artifacts, builds the session, applies setup,
// runs the session and closes the artifacts before building the row.
// Artifacts are closed on every return path; a cell that fails before its
// session runs leaves no artifact file behind.
//
// Cells validate their parameters before calling it, so a rejected cell
// never creates a file.
func runSessionCell[R any](opts Options, target string, params map[string]float64,
	config func(cell Options) vca.SessionConfig, setup cellSetup[R]) (R, error) {
	var zero R
	opts, err := opts.Normalize()
	if err != nil {
		return zero, err
	}
	cell := SweepCellOptions(opts, target, params)
	sc := config(cell)
	done, err := openCellArtifacts(&sc, cell, target, scenario.ParamLabel(params))
	if err != nil {
		return zero, err
	}
	sess, err := vca.NewSession(sc)
	if err != nil {
		return zero, done(err)
	}
	row, err := setup(sess, sc)
	if err != nil {
		return zero, done(err)
	}
	res := sess.Run()
	if err := done(nil); err != nil {
		return zero, err
	}
	return row(res), nil
}

// sanitizeLabel maps a canonical parameter label to a filesystem-safe file
// stem: every byte outside [A-Za-z0-9._-] becomes '-'. Labels are
// deterministic functions of the cell parameters, so the mapping is too.
func sanitizeLabel(label string) string {
	out := []byte(label)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			out[i] = '-'
		}
	}
	return string(out)
}

// openCellArtifacts attaches the outputs one cell was asked for to sc:
// session telemetry (opts.TraceDir, opts.MetricsDir) and the virtual-time
// profiler (opts.ProfDir). With none of the dirs set, sc keeps nil
// Telemetry and Prof: the session runs fully inert, with the scheduler's
// probe hook unset.
//
// Each cell owns its own files, named <target>__<label> after the cell's
// canonical parameter label, so parallel fleet workers never share a
// writer and a rerun overwrites rather than appends. Trace and metrics
// files open now; the profile is written when the run is done. The pprof
// time_nanos stamp is left zero: core is a deterministic package and never
// reads the wall clock; merge-time consumers (internal/fleet, vpfleet
// prof) stamp their own artifacts.
//
// The returned done must be called exactly once. done(nil), after the
// session ran, writes the profile and flushes and closes every file.
// done(err), for a cell that failed before running, closes and removes the
// files created so far and returns err.
func openCellArtifacts(sc *vca.SessionConfig, opts Options, target, label string) (func(runErr error) error, error) {
	stem := target + "__" + sanitizeLabel(label)
	var files []*os.File
	var bufs []*bufio.Writer
	create := func(dir, suffix string) (*bufio.Writer, error) {
		f, err := os.Create(filepath.Join(dir, stem+suffix))
		if err != nil {
			return nil, err
		}
		b := bufio.NewWriterSize(f, 1<<16)
		files, bufs = append(files, f), append(bufs, b)
		return b, nil
	}
	discard := func(err error) error {
		for _, f := range files {
			f.Close()
			os.Remove(f.Name())
		}
		return err
	}

	var tc *vca.TelemetryConfig
	if opts.TraceDir != "" || opts.MetricsDir != "" {
		tc = &vca.TelemetryConfig{}
	}
	if opts.TraceDir != "" {
		w, err := create(opts.TraceDir, ".trace.jsonl")
		if err != nil {
			return nil, discard(err)
		}
		tc.Trace = telemetry.NewTracer(w)
	}
	if opts.MetricsDir != "" {
		w, err := create(opts.MetricsDir, ".metrics.csv")
		if err != nil {
			return nil, discard(err)
		}
		tc.Metrics = telemetry.NewMetrics(w, telemetry.FormatCSV)
	}
	var prof *vprof.Profiler
	if opts.ProfDir != "" {
		prof = vprof.New()
	}
	sc.Telemetry, sc.Prof = tc, prof

	done := func(runErr error) error {
		if runErr != nil {
			return discard(runErr)
		}
		var errs []error
		if tc != nil {
			errs = append(errs, tc.Trace.Err(), tc.Metrics.Err())
		}
		if prof != nil {
			r := prof.Report()
			if w, err := create(opts.ProfDir, ProfJSONLSuffix); err != nil {
				errs = append(errs, err)
			} else {
				errs = append(errs, r.WriteJSONL(w))
			}
			if w, err := create(opts.ProfDir, ProfPprofSuffix); err != nil {
				errs = append(errs, err)
			} else {
				errs = append(errs, r.WritePprof(w, 0))
			}
		}
		for i, f := range files {
			errs = append(errs, bufs[i].Flush(), f.Close())
		}
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("core: cell artifacts %s: %w", stem, err)
		}
		return nil
	}
	return done, nil
}

// twoPartyConfig is the call every session cell impairs: app between two
// Vision Pros, Ashburn-New York, like the paper's testbed calls, seeded
// from the cell. Schedules and queues need time to bite, so the session
// never runs shorter than 12 s regardless of scale.
func twoPartyConfig(app vca.App, cell Options) vca.SessionConfig {
	sc := vca.DefaultSessionConfig(app, []vca.Participant{
		{ID: "u1", Loc: geo.Ashburn, Device: vca.VisionPro},
		{ID: "u2", Loc: geo.NewYork, Device: vca.VisionPro},
	})
	dur := cell.SessionDuration
	if dur < 12*simtime.Second {
		dur = 12 * simtime.Second
	}
	sc.Duration = dur
	sc.Seed = cell.Seed
	return sc
}

// bindUplink binds an impairment schedule to the sender's (user 0's)
// uplink shaper.
func bindUplink(sess *vca.Session, s *scenario.Schedule) error {
	return s.Bind(sess.Scheduler(), sess.UplinkShaper(0))
}

// rampParams validates a ramp cell's start_mbps and floor_mbps (both
// positive, floor no higher than start) and returns them in bits/s.
func rampParams(target string, params map[string]float64) (start, floor float64, err error) {
	start, floor = params["start_mbps"]*1e6, params["floor_mbps"]*1e6
	if !(floor > 0) || !(start > 0) {
		return 0, 0, fmt.Errorf("%s: start_mbps %g and floor_mbps %g must both be positive",
			target, params["start_mbps"], params["floor_mbps"])
	}
	if floor > start {
		return 0, 0, fmt.Errorf("%s: floor %g Mbps above start %g Mbps",
			target, params["floor_mbps"], params["start_mbps"])
	}
	return start, floor, nil
}

// rampSchedule is the congestion ramp over a session of length d: the
// uplink cap falls from start over [D/4, 3D/8], holds floor until 5D/8,
// rises back over D/8, then clears.
func rampSchedule(start, floor float64, d simtime.Duration) *scenario.Schedule {
	return scenario.BandwidthRamp(start, floor, d/4, d/8, 5*d/8, d/8)
}

// floorWindowMbps samples the sender uplink's delivered-byte counter at the
// ramp's floor-hold window edges [3D/8, 5D/8] and returns a func that,
// after the run, reports the achieved rate over that window in Mbps — how
// closely the sender tracked the ramp's bottom.
func floorWindowMbps(sess *vca.Session, d simtime.Duration) func() float64 {
	var startB, endB int64
	sess.Scheduler().At(simtime.Time(3*d/8), func() { startB = sess.UplinkStats(0).DeliveredB })
	sess.Scheduler().At(simtime.Time(5*d/8), func() { endB = sess.UplinkStats(0).DeliveredB })
	return func() float64 { return float64((endB-startB)*8) / (d / 4).Seconds() / 1e6 }
}

// sentFrac is n over the link's sent frames (a drop or loss fraction), 0
// when nothing was sent.
func sentFrac(n int64, up netem.LinkStats) float64 {
	if up.SentFrames == 0 {
		return 0
	}
	return float64(n) / float64(up.SentFrames)
}
