package fleet

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"telepresence/internal/core"
	"telepresence/internal/simtime"
	"telepresence/internal/stats"
)

// testOpts keeps the full-suite tests fast: short sessions, two reps.
func testOpts(seed int64) core.Options {
	o := core.Quick(seed)
	o.SessionDuration = 4 * simtime.Second
	return o
}

// runRows runs exps through RunStream into one MemorySink per experiment
// and returns the collected rows keyed by experiment name.
func runRows(exps []core.Experiment, opts core.Options, cfg Config) ([]UnitResult, map[string][]core.Row, error) {
	sinks := map[string]*MemorySink{}
	results, err := RunStream(exps, opts, cfg, func(e core.Experiment) (Sink, error) {
		sinks[e.Name] = NewMemorySink()
		return sinks[e.Name], nil
	})
	rows := map[string][]core.Row{}
	for name, s := range sinks {
		rows[name] = s.Rows
	}
	return results, rows, err
}

// sweepRows runs spec through RunSweepStream into a MemorySink and returns
// the collected rows in grid order.
func sweepRows(spec SweepSpec, opts core.Options, cfg Config) ([]UnitResult, []core.Row, error) {
	sink := NewMemorySink()
	results, err := RunSweepStream(spec, opts, cfg, sink)
	return results, sink.Rows, err
}

// TestDeterminismAcrossWorkers is the fleet's core guarantee: `run all`
// with one worker and with eight workers must produce byte-identical JSONL
// for every experiment. In -short mode every experiment runs a 1-rep subset
// on both sides; non-short the sequential side reuses the cached golden
// full-suite run (fullSuite), so the double-suite cost collapses to one
// extra parallel run.
func TestDeterminismAcrossWorkers(t *testing.T) {
	var want, got map[string][]byte
	if testing.Short() {
		exps := subsetExperiments(core.Experiments())
		want = suiteJSONL(t, exps, 1)
		got = suiteJSONL(t, exps, 8)
	} else {
		want = fullSuite(t)
		got = suiteJSONL(t, core.Experiments(), 8)
	}
	if len(want) != len(got) {
		t.Fatalf("experiment counts differ: %d vs %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s missing from parallel run", name)
			continue
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s: workers=1 and workers=8 output differ\nseq: %.200s\npar: %.200s", name, w, g)
		}
		if len(w) == 0 {
			t.Errorf("%s emitted no rows", name)
		}
	}
}

func TestRunMergesRepOrder(t *testing.T) {
	// A synthetic experiment whose rows encode their rep index proves the
	// merge preserves rep order even when workers finish out of order.
	exp := core.Experiment{
		Name: "synthetic", Desc: "test", Row: 0,
		Reps: func(core.Options) int { return 16 },
		Run: func(_ core.Options, rep int) ([]core.Row, error) {
			time.Sleep(time.Duration(16-rep) * time.Millisecond) // later reps finish first
			return []core.Row{rep * 10, rep*10 + 1}, nil
		},
	}
	_, byName, err := runRows([]core.Experiment{exp}, core.Quick(1), Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	rows := byName["synthetic"]
	if len(rows) != 32 {
		t.Fatalf("%d rows, want 32", len(rows))
	}
	for i, r := range rows {
		want := (i/2)*10 + i%2
		if r.(int) != want {
			t.Fatalf("row %d = %v, want %d (merge order broken)", i, r, want)
		}
	}
}

func TestRunInvalidOptions(t *testing.T) {
	if _, _, err := runRows(core.Experiments(), core.Options{Reps: -1}, Config{}); err == nil {
		t.Error("negative Reps not rejected")
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(core.Experiments()) {
		t.Fatalf("Select(all) = %d exps, %v", len(all), err)
	}
	some, err := Select("fig5", "servers", "fig5")
	if err != nil || len(some) != 2 {
		t.Fatalf("Select dedup failed: %d exps, %v", len(some), err)
	}
	if _, err := Select("bogus"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestManifest(t *testing.T) {
	exps, _ := Select("servers", "protocols")
	opts := testOpts(3)
	res, _, err := runRows(exps, opts, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(opts, 2, 5*time.Millisecond, res)
	if m.Format != ManifestFormat || m.Seed != 3 || m.Workers != 2 {
		t.Errorf("manifest header wrong: %+v", m)
	}
	if len(m.Sections) != 2 || m.Sections[0].Name != "servers" || m.Sections[0].Rows != 3 {
		t.Fatalf("section manifests wrong: %+v", m.Sections)
	}
	// A registry experiment is a section whose unit labels are its reps.
	for i, u := range m.Sections[0].Units {
		label := fmt.Sprintf("rep=%d", i)
		if u.Label != label || u.Key != "grid/servers/"+label || u.Rows != 1 || u.Attempts != 1 || u.WallMs < 0 {
			t.Errorf("servers unit %d = %+v", i, u)
		}
	}
	if _, err := json.Marshal(m); err != nil {
		t.Errorf("manifest not serializable: %v", err)
	}
}

func TestMemorySink(t *testing.T) {
	exps, _ := Select("servers")
	res, byName, err := runRows(exps, testOpts(4), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := byName["servers"]
	if len(rows) != 3 || len(res) != 3 || res[0].Rows != 1 {
		t.Fatalf("%d rows over %d units (unit 0: %d rows), want 3 over 3", len(rows), len(res), res[0].Rows)
	}
	if _, ok := rows[0].(core.MultiServerRow); !ok {
		t.Errorf("row type %T, want core.MultiServerRow", rows[0])
	}
}

func TestCSVSinkFlattening(t *testing.T) {
	type inner struct{ A, B float64 }
	type row struct {
		Label  string
		Nested inner
		Vals   []int
		Sample *stats.Sample
		OK     bool
	}
	var buf bytes.Buffer
	s := NewCSVSink(&buf, row{})
	err := s.Write(row{
		Label: "x", Nested: inner{1.5, 2},
		Vals: []int{7, 8}, Sample: stats.NewSample(1, 2, 3), OK: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := strings.Join(recs[0], ",")
	want := "Label,Nested.A,Nested.B,Vals,Sample.n,Sample.mean,Sample.std,Sample.min,Sample.p25,Sample.median,Sample.p75,Sample.p95,Sample.max,OK"
	if header != want {
		t.Errorf("header = %s\nwant     %s", header, want)
	}
	rec := recs[1]
	if rec[0] != "x" || rec[1] != "1.5" || rec[3] != "7;8" || rec[4] != "3" || rec[5] != "2" || rec[13] != "true" {
		t.Errorf("record = %v", rec)
	}
}

func TestCSVSinkHeaderOnEmpty(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSVSink(&buf, core.RateAdaptationRow{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "CapMbps,UnavailableFrac,MeanLatencyMs" {
		t.Errorf("empty-file header = %q", got)
	}
}
