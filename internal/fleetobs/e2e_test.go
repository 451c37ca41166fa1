package fleetobs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"telepresence/internal/core"
	"telepresence/internal/fleet"
)

// init registers this package's own synthetic sweep target (the fleet
// package's "synth-sweep" lives in its test binary, not ours). Cells emit
// two rows echoing their parameters; a < 0 fails every attempt.
func init() {
	core.RegisterSweep(core.SweepTarget{
		Name: "obs-sweep", Desc: "fleetobs test target",
		Row: map[string]float64{},
		Params: []core.SweepParam{
			{Name: "a", Default: 1},
			{Name: "b", Default: 10},
		},
		Run: func(opts core.Options, params map[string]float64) ([]core.Row, error) {
			cell := core.SweepCellOptions(opts, "obs-sweep", params)
			if params["a"] < 0 {
				return nil, fmt.Errorf("synthetic failure a=%v", params["a"])
			}
			mk := func(k int) core.Row {
				return map[string]float64{
					"a": params["a"], "b": params["b"], "k": float64(k),
					"seed": float64(cell.Seed % 1e6),
				}
			}
			return []core.Row{mk(0), mk(1)}, nil
		},
	})
}

// obsSpec is the shared 8-cell grid: two cells (a=-1) fail terminally.
func obsSpec() fleet.SweepSpec {
	return fleet.SweepSpec{Target: "obs-sweep", Axes: []fleet.Axis{
		{Name: "a", Values: []float64{-1, 1, 2, 3}},
		{Name: "b", Values: []float64{10, 20}},
	}}
}

// metricValue extracts `name{run="id"} v` from exposition text.
func metricValue(t *testing.T, text, name, id string) float64 {
	t.Helper()
	prefix := name + `{run="` + id + `"} `
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value in %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s{run=%q} absent from:\n%s", name, id, text)
	return 0
}

// TestLiveServerMatchesManifest is the end-to-end acceptance pin: a sweep
// with two failing cells runs under the live HTTP server, and the
// server's final /api/runs/{id} state (rows, failures, journal hits) must
// equal the written manifest field-for-field, with /metrics counters
// matching the same totals.
func TestLiveServerMatchesManifest(t *testing.T) {
	spec := obsSpec()
	opts := core.Quick(11)
	reg := NewRegistry()
	st := reg.NewRun("sweep-obs", "sweep")
	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	var buf bytes.Buffer
	sink := fleet.NewJSONLSink(io.MultiWriter(&buf, st.RowLog()))
	cfg := fleet.Config{Workers: 4, Monitor: st}
	start := time.Now()
	results, runErr := fleet.RunSweepStream(spec, opts, cfg, sink)
	wall := time.Since(start)
	if runErr == nil {
		t.Fatal("sweep with two always-failing cells returned nil error")
	}
	st.Finish(runErr, "")
	m := fleet.NewManifest(opts, cfg.Workers, wall, results)
	units := m.Sections[0].Units
	if len(m.Failures) != 2 {
		t.Fatalf("manifest failures = %d, want 2 (the a=-1 cells)", len(m.Failures))
	}

	var snap Snapshot
	getJSON(t, srv.URL+"/api/runs/sweep-obs", &snap)

	// Field-for-field against the manifest.
	if snap.State != RunFailed {
		t.Errorf("state = %q, want failed", snap.State)
	}
	if int(snap.Rows) != m.Rows {
		t.Errorf("rows: api %d, manifest %d", snap.Rows, m.Rows)
	}
	if snap.FailuresTotal != len(m.Failures) {
		t.Errorf("failures: api %d, manifest %d", snap.FailuresTotal, len(m.Failures))
	}
	if snap.JournalHits != m.Resumed {
		t.Errorf("journal hits: api %d, manifest resumed %d", snap.JournalHits, m.Resumed)
	}
	// Failure entries line up: same unit, attempts and stack; the manifest
	// error wraps the unit error the monitor saw. The API lists failures in
	// completion order and the manifest in grid order, so match by unit.
	apiFailures := map[string]Failure{}
	for _, af := range snap.Failures {
		apiFailures[af.Unit] = af
	}
	for i, f := range m.Failures {
		af := apiFailures[f.Unit]
		if af.Unit != f.Unit || af.Attempts != f.Attempts || af.Stack != f.Stack {
			t.Errorf("failure %d: api %+v, manifest %+v", i, af, f)
		}
		if !strings.Contains(f.Error, af.Error) && !strings.Contains(af.Error, f.Error) {
			t.Errorf("failure %d error mismatch: api %q, manifest %q", i, af.Error, f.Error)
		}
	}
	// Per-unit detail: every cell visible, terminal, one attempt each.
	if len(snap.UnitViews) != len(units) {
		t.Fatalf("unit views = %d, cells = %d", len(snap.UnitViews), len(units))
	}
	for i, u := range snap.UnitViews {
		if u.Status != StatusDone && u.Status != StatusFailed {
			t.Errorf("unit %d status %q", i, u.Status)
		}
		if u.Attempts != 1 || units[i].Attempts != 1 {
			t.Errorf("unit %d attempts %d, manifest %d", i, u.Attempts, units[i].Attempts)
		}
	}

	// /metrics counters match the same manifest totals.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if got := metricValue(t, text, "fleet_rows_total", "sweep-obs"); got != float64(m.Rows) {
		t.Errorf("fleet_rows_total = %v, manifest rows %d", got, m.Rows)
	}
	if got := metricValue(t, text, "fleet_failures_total", "sweep-obs"); got != float64(len(m.Failures)) {
		t.Errorf("fleet_failures_total = %v, manifest failures %d", got, len(m.Failures))
	}
	for _, name := range []string{"fleet_panics_total", "fleet_timeouts_total"} {
		if got := metricValue(t, text, name, "sweep-obs"); got != 0 {
			t.Errorf("%s = %v, want 0 (the failing cells return errors)", name, got)
		}
	}
	if got := metricValue(t, text, "fleet_journal_hits_total", "sweep-obs"); got != float64(m.Resumed) {
		t.Errorf("fleet_journal_hits_total = %v, manifest resumed %d", got, m.Resumed)
	}

	// The rows endpoint replays the sink's exact bytes (the log closed with
	// Finish, so the request terminates).
	resp, err = http.Get(srv.URL + "/api/runs/sweep-obs/rows")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(rows, buf.Bytes()) {
		t.Errorf("rows endpoint diverges from sink bytes:\napi:  %q\nsink: %q", rows, buf.Bytes())
	}
}

// TestServerAttachedOutputByteIdentical: running under the full
// observability stack (RunState monitor, RowLog tee, live HTTP server)
// changes no emitted byte at workers 1 vs 8 — observe, never steer.
func TestServerAttachedOutputByteIdentical(t *testing.T) {
	spec := fleet.SweepSpec{Target: "obs-sweep", Axes: []fleet.Axis{
		{Name: "a", Values: []float64{1, 2, 3, 4, 5, 6}},
		{Name: "b", Values: []float64{10, 20}},
	}}
	opts := core.Quick(7)

	var bare bytes.Buffer
	if _, err := fleet.RunSweepStream(spec, opts, fleet.Config{Workers: 4}, fleet.NewJSONLSink(&bare)); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		reg := NewRegistry()
		st := reg.NewRun("sweep-obs", "sweep")
		srv := httptest.NewServer(NewMux(reg))
		var got bytes.Buffer
		sink := fleet.NewJSONLSink(io.MultiWriter(&got, st.RowLog()))
		_, err := fleet.RunSweepStream(spec, opts, fleet.Config{Workers: workers, Monitor: st}, sink)
		st.Finish(err, "")
		srv.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(bare.Bytes(), got.Bytes()) {
			t.Errorf("workers=%d: served run bytes diverge from bare run", workers)
		}
	}
}
