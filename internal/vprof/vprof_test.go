package vprof

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"telepresence/internal/simtime"
)

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// buildProfile runs a small deterministic simulation under a profiler:
// two tickers and a one-shot event across three subsystems.
func buildProfile(t *testing.T) (*Profiler, *simtime.Scheduler) {
	t.Helper()
	s := simtime.NewScheduler()
	p := New()
	p.Attach(s)
	fast := s.Site("netem.deliver")
	slow := s.Site("vca/recovery.scan")
	one := s.Site("scenario.apply")
	simtime.NewTicker(s, 10*time.Millisecond, fast, func(simtime.Time) {})
	simtime.NewTicker(s, 100*time.Millisecond, slow, func(simtime.Time) {})
	s.At(simtime.Time(50*time.Millisecond), one, func() {})
	s.At(simtime.Time(70*time.Millisecond), 0, func() {}) // unlabeled
	s.RunUntil(simtime.Time(1 * time.Second))
	return p, s
}

func TestReportCounters(t *testing.T) {
	p, _ := buildProfile(t)
	r := p.Report()
	if r.VirtualNanos != int64(time.Second) {
		t.Errorf("VirtualNanos = %d, want 1s", r.VirtualNanos)
	}
	want := map[string]uint64{
		"netem.deliver":     100,
		"vca/recovery.scan": 10,
		"scenario.apply":    1,
		Unlabeled:           1,
	}
	if len(r.Sites) != len(want) {
		t.Fatalf("sites = %d, want %d: %+v", len(r.Sites), len(want), r.Sites)
	}
	for _, s := range r.Sites {
		if s.Events != want[s.Site] {
			t.Errorf("%s events = %d, want %d", s.Site, s.Events, want[s.Site])
		}
	}
	if r.TotalEvents != 112 {
		t.Errorf("TotalEvents = %d, want 112", r.TotalEvents)
	}
	// The 10 ms ticker fires every 10 ms: 99 gaps, all in the bucket
	// holding 10_000_000 ns (2^23 <= g < 2^24).
	for _, s := range r.Sites {
		if s.Site != "netem.deliver" {
			continue
		}
		if len(s.Gaps) != 1 || s.Gaps[0].Count != 99 || s.Gaps[0].LtNanos != 1<<24 {
			t.Errorf("netem.deliver gaps = %+v, want one bucket lt_ns=%d count=99", s.Gaps, 1<<24)
		}
		if got := s.EventsPerVSec; got != 100 {
			t.Errorf("netem.deliver events_per_vsec = %v, want 100", got)
		}
		if got := s.Subsystem; got != "netem" {
			t.Errorf("netem.deliver subsystem = %q", got)
		}
	}
}

// TestReportJSONLDeterministic: two identical runs serialize to identical
// bytes, and the serialized form survives a parse round trip.
func TestReportJSONLDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	p1, _ := buildProfile(t)
	if err := p1.Report().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	p2, _ := buildProfile(t)
	if err := p2.Report().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("reports not byte-identical:\n%s\nvs\n%s", a.String(), b.String())
	}

	parsed, err := ParseReport(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := parsed.WriteJSONL(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Errorf("parse round trip changed bytes:\n%s\nvs\n%s", a.String(), c.String())
	}
}

func TestParseReportRejectsGarbage(t *testing.T) {
	if _, err := ParseReport(strings.NewReader("")); err == nil {
		t.Error("empty input parsed")
	}
	if _, err := ParseReport(strings.NewReader("{\"format\":\"nope/9\"}\n")); err == nil {
		t.Error("unknown format parsed")
	}
	if _, err := ParseReport(strings.NewReader("{\"format\":\"" + ReportFormat + "\",\"sites\":3}\n")); err == nil {
		t.Error("truncated report parsed")
	}
}

func TestMerge(t *testing.T) {
	p1, _ := buildProfile(t)
	p2, _ := buildProfile(t)
	m := Merge(p1.Report(), p2.Report())
	if m.VirtualNanos != 2*int64(time.Second) {
		t.Errorf("merged VirtualNanos = %d, want 2s", m.VirtualNanos)
	}
	if m.TotalEvents != 224 {
		t.Errorf("merged TotalEvents = %d, want 224", m.TotalEvents)
	}
	for _, s := range m.Sites {
		if s.Site == "netem.deliver" {
			if s.Events != 200 {
				t.Errorf("merged events = %d, want 200", s.Events)
			}
			// Rate is per total profiled virtual second: unchanged.
			if s.EventsPerVSec != 100 {
				t.Errorf("merged events_per_vsec = %v, want 100", s.EventsPerVSec)
			}
			if len(s.Gaps) != 1 || s.Gaps[0].Count != 198 {
				t.Errorf("merged gaps = %+v, want count 198", s.Gaps)
			}
		}
	}
	// Merge keys on names, so it is associative over reports from
	// different schedulers with different SiteID assignments.
	s3 := simtime.NewScheduler()
	p3 := New()
	p3.Attach(s3)
	// Intern in a different order so IDs differ.
	other := s3.Site("vca/recovery.scan")
	simtime.NewTicker(s3, 100*time.Millisecond, other, func(simtime.Time) {})
	s3.RunUntil(simtime.Time(1 * time.Second))
	m2 := Merge(m, p3.Report())
	for _, s := range m2.Sites {
		if s.Site == "vca/recovery.scan" && s.Events != 30 {
			t.Errorf("cross-scheduler merged events = %d, want 30", s.Events)
		}
	}
}

// TestTop ranks a report without CPU, as parsed from JSONL: by events,
// deterministically.
func TestTop(t *testing.T) {
	p, _ := buildProfile(t)
	var jsonl bytes.Buffer
	if err := p.Report().WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	r, err := ParseReport(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	top := r.Top(2)
	if len(top) != 2 || top[0].Site != "netem.deliver" || top[1].Site != "vca/recovery.scan" {
		t.Errorf("Top(2) = %+v", top)
	}
	var buf bytes.Buffer
	if err := p.Report().WriteTop(&buf, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "netem.deliver") {
		t.Errorf("WriteTop output missing hot site:\n%s", buf.String())
	}
}

// TestTopRanksByCPU: when the report carries CPU, the site with the most
// CPU ranks first even with fewer events; equal CPU falls back to events,
// then to name.
func TestTopRanksByCPU(t *testing.T) {
	r := &Report{Sites: []SiteReport{
		{Site: "netem.deliver", Events: 296000, CPUNanos: 410e6},
		{Site: "quic.ack", Events: 900, CPUNanos: 5e6},
		{Site: "quic.rto", Events: 40, CPUNanos: 5e6},
		{Site: "scenario.apply", Events: 40, CPUNanos: 5e6},
		{Site: "vca/quic.frame", Events: 54000, CPUNanos: 4330e6},
	}}
	var got []string
	for _, s := range r.Top(0) {
		got = append(got, s.Site)
	}
	want := []string{"vca/quic.frame", "netem.deliver", "quic.ack", "quic.rto", "scenario.apply"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Top(0) = %v, want %v", got, want)
	}
}

// TestPprofRoundTrip: the hand-rolled encoder's output decodes back to the
// same events/CPU/duration aggregates via the hand-rolled decoder.
func TestPprofRoundTrip(t *testing.T) {
	p, _ := buildProfile(t)
	r := p.Report()
	var buf bytes.Buffer
	if err := r.WritePprof(&buf, 12345); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePprof(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.VirtualNanos != r.VirtualNanos || got.TotalEvents != r.TotalEvents {
		t.Errorf("round trip: virtual %d events %d, want %d / %d",
			got.VirtualNanos, got.TotalEvents, r.VirtualNanos, r.TotalEvents)
	}
	if len(got.Sites) != len(r.Sites) {
		t.Fatalf("round trip sites = %d, want %d", len(got.Sites), len(r.Sites))
	}
	for i := range r.Sites {
		w, g := r.Sites[i], got.Sites[i]
		if g.Site != w.Site || g.Events != w.Events || g.CPUNanos != w.CPUNanos {
			t.Errorf("site %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestPprofToolParses shells out to the stock toolchain: `go tool pprof
// -top` must parse the emitted profile and print the site frames.
func TestPprofToolParses(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	p, _ := buildProfile(t)
	f := t.TempDir() + "/profile.pb.gz"
	var buf bytes.Buffer
	if err := p.Report().WritePprof(&buf, time.Now().UnixNano()); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(f, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", f).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top: %v\n%s", err, out)
	}
	for _, site := range []string{"netem.deliver", "vca/recovery.scan", "scenario.apply"} {
		if !strings.Contains(string(out), site) {
			t.Errorf("pprof -top output missing %q:\n%s", site, out)
		}
	}
}

func TestMergedPprofParses(t *testing.T) {
	p1, _ := buildProfile(t)
	p2, _ := buildProfile(t)
	m := Merge(p1.Report(), p2.Report())
	var buf bytes.Buffer
	if err := m.WritePprof(&buf, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePprof(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEvents != m.TotalEvents {
		t.Errorf("merged pprof events = %d, want %d", got.TotalEvents, m.TotalEvents)
	}
}

// BenchmarkSchedulerChurn is simtime's scheduler churn (one event a
// operation, up to 1,000 pending) over four sites, without and with a
// Profiler attached. The difference per operation is what profiling adds
// to each event, chiefly its two time.Now calls, and so what a traced
// run's per-site CPU carries on top of the callbacks' own work.
func BenchmarkSchedulerChurn(b *testing.B) {
	for _, profiled := range []bool{false, true} {
		name := "bare"
		if profiled {
			name = "profiled"
		}
		b.Run(name, func(b *testing.B) {
			s := simtime.NewScheduler()
			if profiled {
				New().Attach(s)
			}
			sites := []simtime.SiteID{s.Site("netem.deliver"), s.Site("quic.ack"),
				s.Site("vca/quic.frame"), s.Site("vca/rtp.audio")}
			fn := func() {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.At(s.Now().Add(simtime.Duration(i%100)*simtime.Microsecond), sites[i%len(sites)], fn)
				if s.Pending() > 1000 {
					for s.Pending() > 0 {
						s.Step()
					}
				}
			}
			s.Run()
		})
	}
}
