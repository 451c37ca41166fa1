package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"telepresence/internal/vprof"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// runConfig is one invocation's measurement settings.
type runConfig struct {
	root    string // repository root: golden file and build directory
	work    string // scratch directory for child outputs, removed at exit
	seed    int64
	seconds float64
	short   bool
}

// pass is one child run of a workload, as measured from outside.
type pass struct {
	wall  time.Duration // child start to exit
	setup time.Duration // child start to first dispatch
	cpu   time.Duration // child user + system CPU
	rep   childReport
	rows  int
	hash  string
	// resume* describe the journal workload's second, resuming child.
	resumeWall time.Duration
	resumeHits int
	// Traced passes only: merged vprof sites and the CPU profile.
	sites *vprof.Report
	flat  flatProfile
}

// workloadResult is what one measured workload reports.
type workloadResult struct {
	metrics   []metric
	notes     []string
	problems  []string
	attempted int
	failed    int
	hash      string
	passes    int
}

func (r *workloadResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// measure runs w for the configured time. Untraced, it reports the
// end-to-end metrics; traced, it runs untraced and then traced for the same
// time and reports the per-layer metrics.
func (c runConfig) measure(w workload, traced bool) (*workloadResult, error) {
	res := &workloadResult{}
	base, probes, err := c.passes(w, false, res)
	if err != nil {
		return nil, err
	}
	if !traced {
		if c.seed == 1 {
			if err := c.golden(w, res); err != nil {
				return nil, err
			}
		}
		res.metrics = endToEnd(base, probes)
		res.notes = append(res.notes, fmt.Sprintf("%d passes, %d unit samples, %d set-up samples",
			len(base), len(unitWalls(base)), len(base)+len(probes)))
		return res, nil
	}
	tr, _, err := c.passes(w, true, res)
	if err != nil {
		return nil, err
	}
	if tr[0].hash != base[0].hash {
		res.problem("traced rows %s differ from untraced rows %s", tr[0].hash, base[0].hash)
	}
	replays := map[string]replayResult{}
	replaySeconds := 10.0
	if c.short {
		replaySeconds = 1
	}
	for _, a := range w.apps {
		r, err := replay(a, c.seed, replaySeconds)
		if err != nil {
			res.problem("%v", err)
			continue
		}
		if r.validateErrors > 0 {
			res.problem("replay %s: %d frames failed Validate", a.name, r.validateErrors)
		}
		replays[a.name] = r
	}
	res.metrics = perLayer(base, tr, replays)
	res.notes = append(res.notes, fmt.Sprintf("%d untraced and %d traced passes", len(base), len(tr)))
	if len(tr[0].sites.Sites) == 0 {
		res.notes = append(res.notes, "site.*: this workload's cells have no ProfDir hook; sites report 0")
	}
	for _, a := range replayApps {
		if _, ok := replays[a]; !ok {
			res.notes = append(res.notes, "replay."+a+".*: no "+a+" 2D video in this workload; reported as 0")
		}
	}
	return res, nil
}

// passes runs passes of w until the next one would overrun the configured
// time, at least one. Untraced runs also time probesPerPass set-up-only
// children before each pass.
func (c runConfig) passes(w workload, traced bool, res *workloadResult) ([]pass, []time.Duration, error) {
	var ps []pass
	var probes []time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		if !traced {
			for k := 0; k < probesPerPass; k++ {
				s, err := c.probe(w, fmt.Sprintf("probe-%d-%d", i, k))
				if err != nil {
					return nil, nil, err
				}
				probes = append(probes, s)
			}
		}
		p, out, err := c.runPass(w, traced, fmt.Sprintf("pass-%d-%t", i, traced), res)
		if err != nil {
			return nil, nil, err
		}
		if len(ps) > 0 && p.hash != ps[0].hash {
			res.problem("pass %d rows %s differ from pass 0 rows %s", i, p.hash, ps[0].hash)
		}
		if i == 0 && !traced && c.seed == 1 && w.golden {
			c.compareGolden(out, res)
		}
		ps = append(ps, p)
		res.hash = ps[0].hash
		res.passes = len(ps)
		if elapsed := time.Since(start); elapsed+p.wall+p.resumeWall > time.Duration(c.seconds*float64(time.Second)) {
			return ps, probes, nil
		}
	}
}

// probesPerPass set-up-only children run before every untraced pass:
// set-up takes about a millisecond, so its median needs many samples.
const probesPerPass = 4

// childArgs are the flags every child of w shares.
func (c runConfig) childArgs(w workload, dir string) []string {
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(c.seed, 10), "-dir", dir}
	if c.short {
		args = append(args, "-short")
	}
	return args
}

// probe times one set-up-only child: start to first dispatch.
func (c runConfig) probe(w workload, tag string) (time.Duration, error) {
	dir := filepath.Join(c.work, tag)
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	args := append(c.childArgs(w, dir), "-probe")
	if w.journal {
		args = append(args, "-journal", filepath.Join(dir, "journal"))
	}
	p, err := spawn(args)
	if err != nil {
		return 0, err
	}
	return p.setup, nil
}

// runPass runs one pass child (and, for journal workloads, its resume
// child), checks its output and returns it.
func (c runConfig) runPass(w workload, traced bool, tag string, res *workloadResult) (pass, output, error) {
	dir := filepath.Join(c.work, tag)
	defer os.RemoveAll(dir)
	outDir, journal := filepath.Join(dir, "out"), filepath.Join(dir, "journal")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return pass{}, output{}, err
	}
	args := c.childArgs(w, outDir)
	if traced {
		args = append(args, "-prof")
	}
	if w.journal {
		args = append(args, "-journal", journal)
	}
	p, err := spawn(args)
	if err != nil {
		return pass{}, output{}, err
	}
	out, err := readOutput(outDir, w.sections())
	if err != nil {
		return pass{}, output{}, err
	}
	p.rows, p.hash = out.rows(), out.sha256()
	res.attempted += p.rep.Units
	res.failed += p.rep.Failed
	if p.rep.Err != "" {
		res.problem("%s: %s", tag, p.rep.Err)
	}
	if p.rows != w.rows || p.rep.Rows != w.rows {
		res.problem("%s: %d rows written, %d emitted, want %d", tag, p.rows, p.rep.Rows, w.rows)
	}
	if traced {
		if p.sites, err = readSites(filepath.Join(outDir, "vprof")); err != nil {
			return pass{}, output{}, err
		}
		f, err := os.Open(filepath.Join(outDir, "cpu.pprof"))
		if err != nil {
			return pass{}, output{}, err
		}
		p.flat, err = parseCPUProfile(f)
		f.Close()
		if err != nil {
			return pass{}, output{}, err
		}
	}
	if w.journal {
		resumeDir := filepath.Join(dir, "resume")
		if err := os.MkdirAll(resumeDir, 0o755); err != nil {
			return pass{}, output{}, err
		}
		r, err := spawn(append(c.childArgs(w, resumeDir), "-journal", journal, "-resume"))
		if err != nil {
			return pass{}, output{}, err
		}
		rout, err := readOutput(resumeDir, w.sections())
		if err != nil {
			return pass{}, output{}, err
		}
		p.resumeWall, p.resumeHits = r.wall, r.rep.JournalHits
		if h := rout.sha256(); h != p.hash {
			res.problem("%s: resumed rows %s differ from live rows %s", tag, h, p.hash)
		}
		if r.rep.JournalHits != p.rep.Units || r.rep.Units != 0 || r.rep.Err != "" {
			res.problem("%s: resume served %d of %d units from the journal and ran %d (%s)",
				tag, r.rep.JournalHits, p.rep.Units, r.rep.Units, r.rep.Err)
		}
	}
	return p, out, nil
}

// golden re-runs w's verify experiments whole at the golden options and
// compares them with the golden suite.
func (c runConfig) golden(w workload, res *workloadResult) error {
	if len(w.verify) == 0 {
		return nil
	}
	dir := filepath.Join(c.work, "verify")
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p, err := spawn(append(c.childArgs(w, dir), "-verify"))
	if err != nil {
		return err
	}
	if p.rep.Failed > 0 || p.rep.Err != "" {
		res.problem("golden re-run: %d failed units (%s)", p.rep.Failed, p.rep.Err)
	}
	out, err := readOutput(dir, w.verify)
	if err != nil {
		return err
	}
	c.compareGolden(out, res)
	return nil
}

func (c runConfig) compareGolden(out output, res *workloadResult) {
	data, err := os.ReadFile(filepath.Join(c.root, goldenPath))
	if err != nil {
		res.problem("golden: %v", err)
		return
	}
	n, problems := checkGolden(parseGolden(data), out)
	res.problems = append(res.problems, problems...)
	res.notes = append(res.notes, fmt.Sprintf("golden: %d sections compared, %d differ", n, len(problems)))
}

// spawn re-executes this binary as a pass child and measures it.
func spawn(args []string) (pass, error) {
	exe, err := os.Executable()
	if err != nil {
		return pass{}, err
	}
	cmd := exec.Command(exe, append([]string{"child"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// The child dies with the thread that started it, so an interrupted
	// benchmark leaves no pass running; the thread stays locked until the
	// child has exited.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runtime.LockOSThread()
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	runtime.UnlockOSThread()
	if err != nil {
		return pass{}, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	p := pass{wall: wall}
	if err := json.Unmarshal(stdout.Bytes(), &p.rep); err != nil {
		return pass{}, fmt.Errorf("child %s: report: %w", strings.Join(args, " "), err)
	}
	p.setup = time.Duration(p.rep.FirstDispatchNs - start.UnixNano())
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return pass{}, fmt.Errorf("child %s: no rusage", strings.Join(args, " "))
	}
	p.cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
	return p, nil
}

// readSites merges every per-cell pprof profile vprof wrote into dir.
func readSites(dir string) (*vprof.Report, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.vprof.pb.gz"))
	if err != nil {
		return nil, err
	}
	var reports []*vprof.Report
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		r, err := vprof.ParsePprof(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		reports = append(reports, r)
	}
	return vprof.Merge(reports...), nil
}

// unitWalls pools every unit's wall time, in seconds.
func unitWalls(ps []pass) []float64 {
	var s []float64
	for _, p := range ps {
		for _, ns := range p.rep.UnitWallNs {
			s = append(s, float64(ns)/1e9)
		}
	}
	return s
}

func rates(ps []pass) []float64 {
	s := make([]float64, len(ps))
	for i, p := range ps {
		s[i] = float64(p.rows) / p.wall.Seconds()
	}
	return s
}

// endToEnd computes the user-visible metrics: medians over passes, unit
// percentiles over every unit of every pass.
func endToEnd(ps []pass, probes []time.Duration) []metric {
	var cpuRow, rss, setups []float64
	for _, p := range ps {
		cpuRow = append(cpuRow, p.cpu.Seconds()/float64(p.rows))
		rss = append(rss, float64(p.rep.PeakRSS)/1e6)
		setups = append(setups, p.setup.Seconds())
	}
	for _, s := range probes {
		setups = append(setups, s.Seconds())
	}
	walls := unitWalls(ps)
	return []metric{
		{"rows_per_s", quantile(rates(ps), 0.5), "rows/s"},
		{"unit_p50_s", quantile(walls, 0.5), "s"},
		{"cpu_s_per_row", quantile(cpuRow, 0.5), "s"},
		{"peak_rss_mb", quantile(rss, 0.5), "MB"},
		{"setup_s", quantile(setups, 0.5), "s"},
	}
}

// siteNames are the scheduler sites the benchmark reports; sites a later
// change adds are summed into site.other.
var siteNames = []string{
	"netem.deliver", "quic.ack", "quic.rto", "scenario.apply",
	"vca/quic.audio", "vca/quic.frame", "vca/ratecontrol.report", "vca/recovery.scan",
	"vca/rtp.audio", "vca/rtp.frame", "vca/sfu.relay", "vca/telemetry.metrics",
	vprof.Unlabeled,
}

// siteMetric names a site's metrics: "vca/rtp.frame" -> "site.vca.rtp.frame".
func siteMetric(site string) string {
	return "site." + strings.Trim(strings.ReplaceAll(site, "/", "."), "()")
}

// coreNames are the experiments and sweep targets the workloads run.
var coreNames = []string{
	"recovery", "fig5", "handover", "burstloss", "congestion",
	"fig4", "anycast", "servers", "protocols",
}

// perLayer computes the per-layer metrics of the traced passes, each a
// mean per pass unless named otherwise.
func perLayer(base, tr []pass, replays map[string]replayResult) []metric {
	n := float64(len(tr))
	var units, attempts, hits float64
	var queue, reorder, idle int64
	peak := 0
	busy := map[string]int64{}
	var resume []float64
	var sites []*vprof.Report
	flat := flatProfile{selfNs: map[string]int64{}}
	for _, p := range tr {
		units += float64(p.rep.Units)
		attempts += float64(p.rep.Attempts)
		hits += float64(p.resumeHits)
		queue += p.rep.QueueWaitNs
		reorder += p.rep.ReorderWaitNs
		idle += p.rep.IdleWorkerNs
		if p.rep.WindowPeak > peak {
			peak = p.rep.WindowPeak
		}
		for k, v := range p.rep.BusyNs {
			busy[k] += v
		}
		resume = append(resume, p.resumeWall.Seconds())
		sites = append(sites, p.sites)
		flat.samples += p.flat.samples
		for k, v := range p.flat.selfNs {
			flat.selfNs[k] += v
		}
	}
	perPass := func(ns int64) float64 { return float64(ns) / 1e9 / n }
	walls := unitWalls(tr)
	var busySum int64
	for _, v := range busy {
		busySum += v
	}
	ms := []metric{
		{"trace.overhead_frac", quantile(rates(base), 0.5)/quantile(rates(tr), 0.5) - 1, "frac"},
		{"fleet.units", units / n, "count"},
		{"fleet.attempts", attempts / n, "count"},
		{"fleet.queue_wait_s", perPass(queue), "s"},
		{"fleet.reorder_wait_s", perPass(reorder), "s"},
		{"fleet.idle_worker_s", perPass(idle), "s"},
		{"fleet.window_peak", float64(peak), "count"},
		{"fleet.journal_hits", hits / n, "count"},
		{"fleet.resume_s", quantile(resume, 0.5), "s"},
		{"core.unit_s.p50", quantile(walls, 0.5), "s"},
		{"core.unit_s.p99", quantile(walls, 0.99), "s"},
		{"core.unit_s.max", quantile(walls, 1), "s"},
		{"core.unit_s.sum", perPass(busySum), "s"},
	}
	for _, name := range coreNames {
		ms = append(ms, metric{"core." + name + ".busy_s", perPass(busy[name]), "s"})
	}

	merged := vprof.Merge(sites...)
	known := map[string]bool{}
	for _, s := range siteNames {
		known[s] = true
	}
	bySite := map[string]vprof.SiteReport{}
	var other vprof.SiteReport
	for _, s := range merged.Sites {
		if known[s.Site] {
			bySite[s.Site] = s
			continue
		}
		other.Events += s.Events
		other.CPUNanos += s.CPUNanos
	}
	siteMetrics := func(name string, s vprof.SiteReport) {
		ms = append(ms,
			metric{name + ".cpu_s", perPass(s.CPUNanos), "s"},
			metric{name + ".events", float64(s.Events) / n, "count"})
	}
	for _, s := range siteNames {
		siteMetrics(siteMetric(s), bySite[s])
	}
	siteMetrics("site.other", other)

	self := map[string]int64{}
	for fn, ns := range flat.selfNs {
		self[pkgBucket(fn)] += ns
	}
	for _, b := range pkgBuckets {
		ms = append(ms, metric{"pkg." + b + ".self_s", perPass(self[b]), "s"})
	}
	ms = append(ms, metric{"pkg.samples", float64(flat.samples) / n, "count"})

	validateErrors := 0
	for _, a := range replayApps {
		r, ok := replays[a]
		if !ok {
			r = replayResult{frames: 1} // every figure reads 0
		}
		validateErrors += r.validateErrors
		ms = append(ms, r.metrics(a)...)
	}
	return append(ms, metric{"replay.validate_errors", float64(validateErrors), "count"})
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
