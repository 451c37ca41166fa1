package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// vpfleetBin is the compiled CLI under test, built once in TestMain so the
// exit-code and signal tests exercise the real binary (os.Exit and signal
// delivery don't compose with in-process testing).
var vpfleetBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "vpfleet-test-*")
	if err != nil {
		panic(err)
	}
	vpfleetBin = filepath.Join(dir, "vpfleet")
	out, err := exec.Command("go", "build", "-o", vpfleetBin, ".").CombinedOutput()
	if err != nil {
		panic("building vpfleet: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runVpfleet executes the binary and returns (exit code, stdout+stderr).
func runVpfleet(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(vpfleetBin, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	if err == nil {
		return 0, buf.String()
	}
	var exitErr *exec.ExitError
	if !isExit(err, &exitErr) {
		t.Fatalf("vpfleet %v: %v\n%s", args, err, buf.String())
	}
	return exitErr.ExitCode(), buf.String()
}

func isExit(err error, target **exec.ExitError) bool {
	e, ok := err.(*exec.ExitError)
	if ok {
		*target = e
	}
	return ok
}

// TestExitCodes pins the CLI contract: 0 success, 1 cell failures,
// 2 usage errors, 3 interrupted-resumable (covered by TestSigtermResume).
func TestExitCodes(t *testing.T) {
	out := t.TempDir()
	// A profiled sweep seeds real profile files for the prof cases; a
	// garbage file pins that malformed profiles are usage errors.
	profDir := t.TempDir()
	if code, o := runVpfleet(t, "sweep", "burstloss", "-axis", "loss_bad=0.3",
		"-vprof", profDir, "-out", out); code != 0 {
		t.Fatalf("profiled sweep exited %d\n%s", code, o)
	}
	profJSONL := filepath.Join(profDir, "merged.vprof.jsonl")
	profPb := filepath.Join(profDir, "merged.vprof.pb.gz")
	garbage := filepath.Join(t.TempDir(), "garbage.vprof.jsonl")
	if err := os.WriteFile(garbage, []byte("not a profile\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"list"}, 0},
		{"no command", []string{}, 2},
		{"unknown command", []string{"frob"}, 2},
		{"run without names", []string{"run"}, 2},
		{"unknown experiment", []string{"run", "nosuch"}, 2},
		{"unknown sweep target", []string{"sweep", "nosuch", "-axis", "a=1"}, 2},
		{"bad flag", []string{"run", "protocols", "-bogus"}, 2},
		{"bad format", []string{"run", "protocols", "-format", "xml"}, 2},
		{"resume without checkpoint", []string{"run", "protocols", "-resume", "-out", out}, 2},
		{"negative cell timeout", []string{"run", "protocols", "-cell-timeout", "-1s", "-out", out}, 2},
		{"clean run", []string{"run", "protocols", "-out", out}, 0},
		// A 1µs watchdog fails the one protocols rep: a timeout is a plain
		// failure.
		{"timed-out run", []string{"run", "protocols", "-cell-timeout", "1us", "-out", out}, 1},
		// serve wraps run/sweep: its own errors are usage errors, and the
		// underlying run's exit code passes through otherwise.
		{"serve without subcommand", []string{"serve", "-addr", "127.0.0.1:0"}, 2},
		{"serve unknown subcommand", []string{"serve", "-addr", "127.0.0.1:0", "frob"}, 2},
		{"serve bad addr", []string{"serve", "-addr", "999.999.999.999:http", "run", "protocols", "-out", out}, 2},
		{"serve clean run", []string{"serve", "-addr", "127.0.0.1:0", "run", "protocols", "-out", out}, 0},
		{"serve timed-out run", []string{"serve", "-addr", "127.0.0.1:0", "run", "protocols", "-cell-timeout", "1us", "-out", out}, 1},
		{"progress clean run", []string{"run", "protocols", "-progress", "-out", out}, 0},
		// prof introspects profile files: malformed or missing inputs are
		// usage errors; valid rank and merge succeed on both formats.
		{"prof without subcommand", []string{"prof"}, 2},
		{"prof unknown subcommand", []string{"prof", "frob"}, 2},
		{"prof top without file", []string{"prof", "top"}, 2},
		{"prof merge without files", []string{"prof", "merge"}, 2},
		{"prof top missing file", []string{"prof", "top", filepath.Join(out, "nosuch.vprof.jsonl")}, 2},
		{"prof top garbage file", []string{"prof", "top", garbage}, 2},
		{"prof top jsonl", []string{"prof", "top", profJSONL}, 0},
		{"prof top pprof", []string{"prof", "top", profPb}, 0},
		{"prof merge valid", []string{"prof", "merge", "-out", t.TempDir(), profJSONL, profPb}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, output := runVpfleet(t, tc.args...)
			if got != tc.want {
				t.Errorf("vpfleet %v exited %d, want %d\n%s", tc.args, got, tc.want, output)
			}
		})
	}
}

// TestClaims: `claims` on a run directory passes the entries that read the
// experiments run and lists the rest as not run; one doctored row fails the
// entry that reads it (exit 1, entry named); a malformed row file or a
// path that is not a directory is a usage error.
func TestClaims(t *testing.T) {
	dir := t.TempDir()
	if code, out := runVpfleet(t, "run", "protocols", "servers", "-out", dir); code != 0 {
		t.Fatalf("run exited %d\n%s", code, out)
	}
	code, out := runVpfleet(t, "claims", dir)
	if code != 0 {
		t.Fatalf("claims on a clean run exited %d\n%s", code, out)
	}
	for _, want := range []string{`(?m)^pass +servers\.geo-max `, `(?m)^pass +protocols\.spatial-quic `, `(?m)^not run +fig5\.apps `, ` 0 fail, `} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("claims output lacks %q\n%s", want, out)
		}
	}

	path := doctorGeoMax(t, dir)
	code, out = runVpfleet(t, "claims", dir)
	if code != 1 || !regexp.MustCompile(`(?m)^FAIL +servers\.geo-max `).MatchString(out) || !strings.Contains(out, " 1 fail, ") {
		t.Errorf("claims on a doctored row exited %d, want 1 naming servers.geo-max\n%s", code, out)
	}

	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"claims", dir}, {"claims", filepath.Join(dir, "nosuch")}, {"claims"}, {"claims", dir, dir}} {
		if code, out := runVpfleet(t, args...); code != 2 {
			t.Errorf("vpfleet %v exited %d, want 2\n%s", args, code, out)
		}
	}
}

// doctorGeoMax rewrites the geo-distributed row (the third) of dir's
// servers.jsonl so its worst case exceeds the initiator-nearest policy's,
// which fails the servers.geo-max entry. It returns the file's path.
func doctorGeoMax(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "servers.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	var row map[string]any
	if err := json.Unmarshal(lines[2], &row); err != nil {
		t.Fatal(err)
	}
	row["MaxOneWayMs"] = 999
	doctored, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	lines[2] = append(doctored, '\n')
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClaimsDiff: `claims -diff` on two identical run directories reports
// no change and exits 0; after one doctored row it names the entry whose
// status flipped and the section with one changed row, and exits 1.
func TestClaimsDiff(t *testing.T) {
	before, after := t.TempDir(), t.TempDir()
	for _, dir := range []string{before, after} {
		if code, out := runVpfleet(t, "run", "servers", "-out", dir); code != 0 {
			t.Fatalf("run exited %d\n%s", code, out)
		}
	}
	code, out := runVpfleet(t, "claims", "-diff", before, after)
	if code != 0 || !strings.Contains(out, "0 changed status, 0 values moved; 0 sections changed") ||
		strings.Contains(out, "rows changed") {
		t.Errorf("claims -diff on identical runs exited %d\n%s", code, out)
	}
	doctorGeoMax(t, after)
	code, out = runVpfleet(t, "claims", "-diff", before, after)
	for _, want := range []string{`(?m)^pass -> FAIL +servers\.geo-max `, `(?m)^servers +1 +3 +3$`,
		`1 changed status, 1 values moved; 1 sections changed`} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("claims -diff output lacks %q\n%s", want, out)
		}
	}
	if code != 1 {
		t.Errorf("claims -diff with a flipped entry exited %d, want 1", code)
	}
	for _, args := range [][]string{{"claims", "-diff", before}, {"claims", "-diff", before, after, after}, {"claims", before, after}} {
		if code, out := runVpfleet(t, args...); code != 2 {
			t.Errorf("vpfleet %v exited %d, want 2\n%s", args, code, out)
		}
	}
}

// slowSweep returns the arguments of a session sweep slow enough to be
// interrupted and watched mid-run: six cells of 8 to 13 s calls, each
// about 1.5 to 2.5 s of wall time on a 2-CPU host, followed by extra.
func slowSweep(extra ...string) []string {
	return append([]string{"sweep", "session", "-axis", "app=1",
		"-axis", "duration_s=8,9,10,11,12,13"}, extra...)
}

// serveURL polls path (the serve-mode stderr log) for the announced
// introspection URL; with -addr 127.0.0.1:0 the port is kernel-assigned,
// so the log line is the only way to find it.
func serveURL(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	re := regexp.MustCompile(`serving live introspection on (http://\S+)`)
	for time.Now().Before(deadline) {
		data, _ := os.ReadFile(path)
		if m := re.FindSubmatch(data); m != nil {
			return string(m[1])
		}
		time.Sleep(20 * time.Millisecond)
	}
	data, _ := os.ReadFile(path)
	t.Fatalf("serve never announced its URL; log:\n%s", data)
	return ""
}

// getBody fetches url and returns the response body, failing on any
// transport error.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(body)
}

// TestServeSigterm pins the serve-mode interrupt contract: the live API
// is reachable while the fleet runs, /metrics exposes fleet_rows_total,
// the rows endpoint streams sink bytes, and a SIGTERM drain flips
// /api/runs/{id} to "interrupted" before the process exits 3 with an
// interrupted, resumable manifest.
func TestServeSigterm(t *testing.T) {
	if testing.Short() {
		t.Skip("signal timing test")
	}
	out, ck := t.TempDir(), t.TempDir()
	logPath := filepath.Join(t.TempDir(), "serve.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()

	// The slow session grid keeps the fleet mid-run when the API is polled
	// and the signal lands; workers=1 leaves cells queued.
	cmd := exec.Command(vpfleetBin, append([]string{"serve", "-addr", "127.0.0.1:0"},
		slowSweep("-workers", "1", "-out", out, "-checkpoint", ck)...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	base := serveURL(t, logPath)
	id := "sweep-session"

	// Poll until the run reports itself running with work dispatched.
	deadline := time.Now().Add(10 * time.Second)
	var snap struct {
		State      string `json:"state"`
		Dispatched int    `json:"dispatched"`
	}
	for {
		if err := json.Unmarshal([]byte(getBody(t, base+"/api/runs/"+id)), &snap); err != nil {
			t.Fatalf("bad /api/runs/%s JSON: %v", id, err)
		}
		if snap.State == "running" && snap.Dispatched > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never reached running state: %+v", snap)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Prometheus exposition carries the run's counters.
	metrics := getBody(t, base+"/metrics")
	if !strings.Contains(metrics, `fleet_rows_total{run="`+id+`"}`) {
		t.Errorf("/metrics missing fleet_rows_total for %s:\n%.400s", id, metrics)
	}

	// The rows endpoint streams the sink's NDJSON; wait for the first cell.
	rowDeadline := time.Now().Add(10 * time.Second)
	for {
		row := getBody(t, base+"/api/runs/"+id+"/rows?max=1")
		if strings.HasPrefix(row, "{") && strings.HasSuffix(strings.TrimSpace(row), "}") {
			break
		}
		if time.Now().After(rowDeadline) {
			t.Fatalf("rows endpoint never streamed a row: %q", row)
		}
		time.Sleep(25 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// During the drain the live API must already report interrupted.
	drainDeadline := time.Now().Add(5 * time.Second)
	for {
		var ds struct {
			State       string `json:"state"`
			Interrupted bool   `json:"interrupted"`
		}
		body := getBody(t, base+"/api/runs/"+id)
		if err := json.Unmarshal([]byte(body), &ds); err != nil {
			t.Fatalf("bad drain JSON: %v", err)
		}
		if ds.State == "interrupted" && ds.Interrupted {
			break
		}
		if time.Now().After(drainDeadline) {
			t.Fatalf("live state never reported interrupted during drain: %s", body)
		}
		time.Sleep(25 * time.Millisecond)
	}

	err = cmd.Wait()
	var exitErr *exec.ExitError
	if !isExit(err, &exitErr) || exitErr.ExitCode() != 3 {
		data, _ := os.ReadFile(logPath)
		t.Fatalf("served interrupted run: err=%v, want exit 3\n%s", err, data)
	}
	var m struct {
		Interrupted bool   `json:"interrupted"`
		Checkpoint  string `json:"checkpoint"`
	}
	data, err := os.ReadFile(filepath.Join(out, "sweep-session-manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !m.Interrupted || m.Checkpoint != ck {
		t.Errorf("manifest %+v, want interrupted with checkpoint %s", m, ck)
	}
}

// TestSigtermResume: SIGTERM mid-run drains gracefully (exit 3, journal
// kept), and a resumed invocation completes (exit 0) with output
// byte-identical to a never-interrupted run.
func TestSigtermResume(t *testing.T) {
	if testing.Short() {
		t.Skip("signal timing test")
	}
	clean, part, resumed := t.TempDir(), t.TempDir(), t.TempDir()
	ck := t.TempDir()

	if code, out := runVpfleet(t, slowSweep("-workers", "2", "-out", clean)...); code != 0 {
		t.Fatalf("clean run exited %d\n%s", code, out)
	}

	// The slow session grid lets the signal land mid-run; workers=1 leaves
	// later cells undispatched when the drain begins.
	cmd := exec.Command(vpfleetBin, slowSweep("-workers", "1", "-out", part, "-checkpoint", ck)...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(700 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var exitErr *exec.ExitError
	if !isExit(err, &exitErr) || exitErr.ExitCode() != 3 {
		t.Fatalf("interrupted run: err=%v, want exit 3\n%s", err, buf.String())
	}

	segs, err := filepath.Glob(filepath.Join(ck, "segment-*.jsonl"))
	records := 0
	for _, seg := range segs {
		data, _ := os.ReadFile(seg)
		records += bytes.Count(data, []byte{'\n'})
	}
	if err != nil || records == 0 {
		t.Fatalf("nothing journaled before drain (%v): %v", err, segs)
	}

	if code, out := runVpfleet(t, slowSweep("-workers", "2", "-out", resumed,
		"-checkpoint", ck, "-resume")...); code != 0 {
		t.Fatalf("resume exited %d\n%s", code, out)
	}
	a, err := os.ReadFile(filepath.Join(clean, "sweep-session.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(resumed, "sweep-session.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("resumed rows diverge from clean rows (lens %d vs %d)", len(a), len(b))
	}

	// Manifests: the partial one is marked interrupted+resumable, the
	// resumed one records journal hits.
	var pm struct {
		Interrupted bool   `json:"interrupted"`
		Checkpoint  string `json:"checkpoint"`
	}
	data, _ := os.ReadFile(filepath.Join(part, "sweep-session-manifest.json"))
	if err := json.Unmarshal(data, &pm); err != nil {
		t.Fatal(err)
	}
	if !pm.Interrupted || pm.Checkpoint != ck {
		t.Errorf("partial manifest %+v, want interrupted with checkpoint %s", pm, ck)
	}
	var rm struct {
		Resumed int `json:"resumed"`
	}
	data, _ = os.ReadFile(filepath.Join(resumed, "sweep-session-manifest.json"))
	if err := json.Unmarshal(data, &rm); err != nil {
		t.Fatal(err)
	}
	if rm.Resumed == 0 {
		t.Error("resumed manifest records no journal hits")
	}
}
