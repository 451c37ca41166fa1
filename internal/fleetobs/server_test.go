package fleetobs

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"telepresence/internal/fleet"
)

// seedServer builds a registry with one synthetic finished run and
// returns its test server.
func seedServer(t *testing.T) (*httptest.Server, *RunState) {
	t.Helper()
	reg := NewRegistry()
	st := reg.NewRun("sweep-demo", "sweep")
	st.Event(fleet.MonitorEvent{Kind: fleet.EventRunStarted, Unit: -1, Units: 2})
	st.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDispatched, Unit: 0, Key: "sweep/demo/a=1"})
	st.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDone, Unit: 0, Key: "sweep/demo/a=1", Attempt: 1, Rows: 1})
	st.Event(fleet.MonitorEvent{Kind: fleet.EventRowsEmitted, Unit: 0, Key: "sweep/demo/a=1", Rows: 1})
	st.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDispatched, Unit: 1, Key: "sweep/demo/a=2"})
	st.Event(fleet.MonitorEvent{Kind: fleet.EventUnitDone, Unit: 1, Key: "sweep/demo/a=2", Attempt: 1,
		Err: errors.New("fleet: sweep/demo/a=2 failed: boom")})
	st.Event(fleet.MonitorEvent{Kind: fleet.EventRunDone, Unit: -1})
	srv := httptest.NewServer(NewMux(reg))
	t.Cleanup(srv.Close)
	return srv, st
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp
}

func TestAPIRunEndpoints(t *testing.T) {
	srv, _ := seedServer(t)

	var list []Snapshot
	getJSON(t, srv.URL+"/api/runs", &list)
	if len(list) != 1 || list[0].ID != "sweep-demo" || list[0].State != RunFailed {
		t.Fatalf("/api/runs = %+v", list)
	}
	if list[0].UnitViews != nil {
		t.Error("list view leaked per-unit detail")
	}

	var one Snapshot
	getJSON(t, srv.URL+"/api/runs/sweep-demo", &one)
	if len(one.UnitViews) != 2 || one.UnitViews[1].Status != StatusFailed {
		t.Fatalf("detail unit views = %+v", one.UnitViews)
	}
	if one.Rows != 1 || one.FailuresTotal != 1 {
		t.Errorf("detail counters = %+v", one)
	}

	resp, err := http.Get(srv.URL + "/api/runs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run status = %d, want 404", resp.StatusCode)
	}
}

// promLine matches the two legal line shapes of the text exposition
// format as this server emits it.
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) fleet_[a-z_]+ .+|fleet_[a-z_]+\{run="[^"]*"\} -?[0-9]+(\.[0-9eE+-]+)?)$`)

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := seedServer(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`fleet_rows_total{run="sweep-demo"} 1`,
		`fleet_failures_total{run="sweep-demo"} 1`,
		`fleet_units_total{run="sweep-demo"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestRowsEndpoint(t *testing.T) {
	srv, st := seedServer(t)
	log := st.RowLog()
	log.Write([]byte("{\"r\":0}\n{\"r\":1}\n{\"r\":2}\n"))

	// Bounded read returns immediately with max lines.
	resp, err := http.Get(srv.URL + "/api/runs/sweep-demo/rows?max=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := string(body); got != "{\"r\":0}\n{\"r\":1}\n" {
		t.Fatalf("max=2 body = %q", got)
	}

	// A follower sees lines appended after it connected, then terminates
	// when the log closes.
	resp, err = http.Get(srv.URL + "/api/runs/sweep-demo/rows?from=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		log.Write([]byte("{\"r\":3}\n"))
		log.Close()
	}()
	sc := bufio.NewScanner(resp.Body)
	var tail []string
	for sc.Scan() {
		tail = append(tail, sc.Text())
	}
	if len(tail) != 1 || tail[0] != `{"r":3}` {
		t.Fatalf("follow tail = %q", tail)
	}

	for _, bad := range []string{"?max=0", "?max=x", "?from=-1"} {
		resp, err := http.Get(srv.URL + "/api/runs/sweep-demo/rows" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv, _ := seedServer(t)
	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status = %d", resp.StatusCode)
	}
}
