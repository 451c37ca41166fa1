package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"telepresence/internal/core"
)

// init registers a throwaway sweep target whose rows echo the cell
// parameters and the derived seed, proving sharding and seed derivation
// without the cost of real sessions.
func init() {
	core.RegisterSweep(core.SweepTarget{
		Name: "synth-sweep", Desc: "test target",
		Row: map[string]float64{},
		Params: []core.SweepParam{
			{Name: "a", Default: 1},
			{Name: "b", Default: 2},
			{Name: "c", Default: 30},
		},
		Run: func(opts core.Options, params map[string]float64) ([]core.Row, error) {
			cell := core.SweepCellOptions(opts, "synth-sweep", params)
			row := map[string]float64{
				"a": params["a"], "b": params["b"], "c": params["c"],
				"seed": float64(cell.Seed % 1e6),
			}
			if params["a"] == -2 {
				panic("synthetic panic")
			}
			if params["a"] < 0 {
				return nil, fmt.Errorf("synthetic failure")
			}
			return []core.Row{row}, nil
		},
	})
}

func TestSweepSpecValidate(t *testing.T) {
	ok := SweepSpec{Target: "synth-sweep", Axes: []Axis{{Name: "a", Values: []float64{1, 2}}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []SweepSpec{
		{Target: "nope", Axes: []Axis{{Name: "a", Values: []float64{1}}}},
		{Target: "synth-sweep"},
		{Target: "synth-sweep", Axes: []Axis{{Name: "zz", Values: []float64{1}}}},
		{Target: "synth-sweep", Axes: []Axis{{Name: "a", Values: nil}}},
		{Target: "synth-sweep", Axes: []Axis{
			{Name: "a", Values: []float64{1}}, {Name: "a", Values: []float64{2}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
		if _, _, err := sweepRows(s, core.Quick(1), Config{}); err == nil {
			t.Errorf("RunSweepStream accepted bad spec %d", i)
		}
	}
}

func TestSweepCellsEnumeration(t *testing.T) {
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{1, 2}},
		{Name: "b", Values: []float64{10, 20, 30}},
	}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	if len(cells) != 6 {
		t.Fatalf("%d cells, want 6", len(cells))
	}
	// Row-major: first axis slowest, defaults filled for c.
	want := []struct{ a, b float64 }{{1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}}
	for i, c := range cells {
		if c.Params["a"] != want[i].a || c.Params["b"] != want[i].b {
			t.Errorf("cell %d params %v, want a=%v b=%v", i, c.Params, want[i].a, want[i].b)
		}
		if c.Params["c"] != 30 {
			t.Errorf("cell %d missing default c=30: %v", i, c.Params)
		}
		if c.Label != fmt.Sprintf("a=%g,b=%g,c=30", want[i].a, want[i].b) {
			t.Errorf("cell %d label %q", i, c.Label)
		}
	}
}

func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{1, 2, 3}},
		{Name: "b", Values: []float64{10, 20}},
	}}
	opts := core.Quick(7)
	w, seq, err := streamSweepJSONL(t, spec, opts, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := streamSweepJSONL(t, spec, opts, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, g) {
		t.Errorf("workers=1 and workers=8 sweep output differ\nseq: %s\npar: %s", w, g)
	}
	if len(seq) != 6 || bytes.Count(w, []byte("\n")) != 6 {
		t.Fatalf("%d results, %d rows, want 6", len(seq), bytes.Count(w, []byte("\n")))
	}
}

func TestSweepSeedsDependOnValuesNotPosition(t *testing.T) {
	// The same parameter values must yield the same rows in any grid shape.
	wide := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{1, 2, 3, 4}}}}
	narrow := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{3}}}}
	opts := core.Quick(5)
	_, rw, err := sweepRows(wide, opts, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, rn, err := sweepRows(narrow, opts, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantRow := rw[2].(map[string]float64) // a=3 at index 2
	gotRow := rn[0].(map[string]float64)  // a=3 at index 0
	if wantRow["seed"] != gotRow["seed"] || wantRow["a"] != gotRow["a"] {
		t.Errorf("cell a=3 differs by grid position: %v vs %v", wantRow, gotRow)
	}
	// Different values get different seeds.
	if s0, s1 := rw[0].(map[string]float64)["seed"], rw[1].(map[string]float64)["seed"]; s0 == s1 {
		t.Errorf("distinct cells share a derived seed: %v", s0)
	}
}

// TestSweepCellFailureIsolated: a failed cell leaves a gap in the stream
// exactly where its rows would be; the surviving cells' rows still stream.
func TestSweepCellFailureIsolated(t *testing.T) {
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{-1, 1}}}}
	out, results, err := streamSweepJSONL(t, spec, core.Quick(1), Config{Workers: 2})
	if err == nil {
		t.Fatal("failing cell produced no error")
	}
	if results[0].Err == nil || results[1].Err != nil {
		t.Errorf("failure not isolated to cell 0: %v / %v", results[0].Err, results[1].Err)
	}
	if results[0].Rows != 0 || results[1].Rows != 1 {
		t.Errorf("row counts %d / %d, want 0 / 1", results[0].Rows, results[1].Rows)
	}
	if n := bytes.Count(out, []byte("\n")); n != 1 || !bytes.Contains(out, []byte(`"a":1`)) {
		t.Errorf("sink saw %d rows (%s), want only the surviving cell's", n, out)
	}
}

func TestSweepManifest(t *testing.T) {
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{1, 2}}}}
	opts := core.Quick(9)
	results, _, err := sweepRows(spec, opts, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(opts, 2, 0, results)
	if m.Format != ManifestFormat || m.Seed != 9 || m.Rows != 2 || len(m.Sections) != 1 {
		t.Fatalf("manifest wrong: %+v", m)
	}
	// A sweep is one section named after its target, whose unit labels
	// are the cells' parameter labels.
	sec := m.Sections[0]
	if sec.Name != "synth-sweep" || sec.Rows != 2 || len(sec.Units) != 2 ||
		sec.Units[1].Label != "a=2,b=2,c=30" || sec.Units[1].Key != "grid/synth-sweep/a=2,b=2,c=30" {
		t.Errorf("sweep section wrong: %+v", sec)
	}
	if _, err := json.Marshal(m); err != nil {
		t.Errorf("manifest not serializable: %v", err)
	}
}

// TestSweepTargetsRegistered pins the three scenario sweep targets the CLI
// documents.
func TestSweepTargetsRegistered(t *testing.T) {
	for _, name := range []string{"handover", "burstloss", "congestion"} {
		tgt, ok := core.LookupSweep(name)
		if !ok {
			t.Errorf("sweep target %q not registered", name)
			continue
		}
		if len(tgt.Params) == 0 || tgt.Row == nil {
			t.Errorf("sweep target %q incomplete: %+v", name, tgt)
		}
	}
}

// TestScenarioSweepMatchesExperiment proves the dual registration: a sweep
// cell at the registry experiment's grid value produces the experiment's
// row byte-for-byte (shared seed derivation from parameter values).
func TestScenarioSweepMatchesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real session")
	}
	opts := testOpts(1)
	spec := SweepSpec{Target: "handover", Axes: []Axis{
		{Name: "delay_ms", Values: []float64{core.DefaultHandoverDelaysMs()[0]}}}}
	_, sweep, err := sweepRows(spec, opts, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := core.Lookup("handover")
	rows, err := exp.Run(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(sweep[0])
	b, _ := json.Marshal(rows[0])
	if !bytes.Equal(a, b) {
		t.Errorf("sweep cell and experiment rep diverge:\nsweep: %s\nexp:   %s", a, b)
	}
}

// TestCCRateSweepDeterminism pins the closed-loop experiments' worker
// invariance on a real grid: two ccrate cells (open-loop vs delay-gradient
// at the same cap) must emit byte-identical rows at any worker count. The
// full-suite TestDeterminismAcrossWorkers covers the complete ccrate and
// ccramp grids in non-short runs; this small grid keeps the guarantee
// exercised in -short CI too.
func TestCCRateSweepDeterminism(t *testing.T) {
	spec := SweepSpec{Target: "ccrate", Axes: []Axis{
		{Name: "controller", Values: []float64{0, 2}},
		{Name: "cap_mbps", Values: []float64{0.9}},
	}}
	opts := core.Quick(3)
	_, seq, err := sweepRows(spec, opts, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, par, err := sweepRows(spec, opts, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := json.Marshal(seq)
	g, _ := json.Marshal(par)
	if !bytes.Equal(w, g) {
		t.Errorf("workers=1 and workers=2 ccrate sweep output differ\nseq: %s\npar: %s", w, g)
	}
	// The two controllers must actually diverge (the loop is closed).
	open := seq[0].(core.CCRateRow)
	gcc := seq[1].(core.CCRateRow)
	if open.Controller != "fixed" || gcc.Controller != "gcc" {
		t.Fatalf("controller labels wrong: %q, %q", open.Controller, gcc.Controller)
	}
	if gcc.UnavailableFrac >= open.UnavailableFrac {
		t.Errorf("closed loop (%.3f) not more available than open loop (%.3f) under the same cap",
			gcc.UnavailableFrac, open.UnavailableFrac)
	}
}
