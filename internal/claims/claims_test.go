package claims

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// goldenRows reads the fleet's golden suite (seed 1, 4 s sessions; pinned
// to the code's output by fleet.TestGoldenSuite): each experiment's JSONL
// after a "# <name>" line.
func goldenRows(t *testing.T) Rows {
	t.Helper()
	data, err := os.ReadFile("../fleet/testdata/golden_suite.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows{}
	for _, section := range strings.Split("\n"+string(data), "\n# ")[1:] {
		name, body, _ := strings.Cut(section, "\n")
		if rows[name], err = Parse(strings.NewReader(body)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if len(rows) == 0 {
		t.Fatal("golden suite has no sections")
	}
	return rows
}

func statuses(results []Result) map[string]Result {
	out := map[string]Result{}
	for _, r := range results {
		out[r.Entry.ID] = r
	}
	return out
}

func TestGoldenPassesEveryEntry(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Evaluate(goldenRows(t)) {
		if r.Status != Pass {
			t.Errorf("%v", r)
		}
		if seen[r.Entry.ID] || r.Entry.Source == "" || r.Entry.Claim == "" {
			t.Errorf("%s: duplicate entry, or no source or claim", r.Entry.ID)
		}
		seen[r.Entry.ID] = true
	}
}

// TestDoctoredGoldenFails: one doctored field in a golden section fails
// exactly the entries that read it, and the report names them.
func TestDoctoredGoldenFails(t *testing.T) {
	rows := goldenRows(t)
	for _, r := range rows["fig5"] {
		if r["Label"] == "W" {
			r["Box"].(map[string]any)["Mean"] = 2.5 // below Teams and the 3 Mbps floor
		}
	}
	results := Evaluate(rows)
	var failed []string
	for _, r := range results {
		if r.Status == Fail {
			failed = append(failed, r.Entry.ID)
		}
	}
	if got, want := strings.Join(failed, " "), "fig5.webex-highest fig5.webex-mbps"; got != want {
		t.Errorf("failed entries %q, want %q", got, want)
	}
	var buf bytes.Buffer
	if n, err := Report(&buf, results); err != nil || n != 2 {
		t.Fatalf("Report = %d, %v; want 2 failures", n, err)
	}
	if !regexp.MustCompile(`(?m)^FAIL +fig5\.webex-mbps `).MatchString(buf.String()) || !strings.Contains(buf.String(), " 2 fail, ") {
		t.Errorf("report does not name the failing entries:\n%s", buf.String())
	}
}

// TestMissingExperimentNotRun: entries reading an absent experiment are
// not run, a cross-experiment entry included; every other entry passes.
func TestMissingExperimentNotRun(t *testing.T) {
	rows := goldenRows(t)
	delete(rows, "keypoints")
	got := statuses(Evaluate(rows))
	for id, r := range got {
		reads := strings.HasPrefix(id, "keypoints.") || id == "mesh.keypoint-ratio"
		if reads != (r.Status == NotRun) || !reads && r.Status != Pass {
			t.Errorf("%v", r)
		}
	}
	if r := got["mesh.keypoint-ratio"]; !strings.HasPrefix(r.String(), "not run\tmesh.keypoint-ratio") || r.Err.Error() != "no keypoints rows" {
		t.Errorf("%v (%v): want not run, for want of keypoints rows", r, r.Err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"{\"a\":1}\n{\"a\":\n",
		"null\n",
		"[1,2]\n",
		"{\"a\":1} trailing\n",
		"not json\n",
	} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) accepted malformed JSONL", in)
		}
	}
	if rows, err := Parse(strings.NewReader("{\"a\":1}\n{\"b\":[2]}\n")); err != nil || len(rows) != 2 {
		t.Errorf("Parse of two rows = %d rows, %v", len(rows), err)
	}
}

// TestMalformedFieldsFail: a field of the wrong shape fails the entry with
// an error instead of panicking or passing.
func TestMalformedFieldsFail(t *testing.T) {
	rows := goldenRows(t)
	rows["fig4"][0]["Label"] = map[string]any{"not": "a label"}
	rows["mesh"][3]["Mbps"] = "fast"
	delete(rows["viewport"][0], "GatedMbps")
	rows["fig6"] = rows["fig6"][1:] // no baseline row
	got := statuses(Evaluate(rows))
	for _, id := range []string{"fig4.series", "mesh.mbps", "mesh.keypoint-ratio", "viewport.gating-saves", "fig6.gpu-drops"} {
		if r := got[id]; r.Status != Fail || r.Err == nil {
			t.Errorf("%s: %v, want a failure with an error", id, r)
		}
	}
}

func TestBand(t *testing.T) {
	for _, c := range []struct {
		b    Band
		v    float64
		in   bool
		text string
	}{
		{atLeast(100), 100, true, "[100, +Inf]"},
		{above(0), 0, false, "(0, +Inf)"},
		{atMost(16), 16.5, false, "[-Inf, 16]"},
		{below(0), -0.1, true, "(-Inf, 0)"},
		{within(0.5, 0.8), 0.8, true, "[0.5, 0.8]"},
		{between(0.05, 0.8), 0.8, false, "(0.05, 0.8)"},
		{exactly(10), 10, true, "[10, 10]"},
		{around(108.4, 16.7), 94.5, true, "[91.7, 125.1]"},
		{atLeast(0), math.NaN(), false, "[0, +Inf]"},
	} {
		if got := c.b.Contains(c.v); got != c.in {
			t.Errorf("%v contains %g = %v, want %v", c.b, c.v, got, c.in)
		}
		if got := c.b.String(); got != c.text {
			t.Errorf("band %+v prints %q, want %q", c.b, got, c.text)
		}
	}
}

// TestResultReportsWorstValue: an entry over many values reports the one
// closest to (or furthest outside) its band, with that margin.
func TestResultReportsWorstValue(t *testing.T) {
	rows := Rows{"mesh": {{"Triangles": 80000.0}, {"Triangles": 90500.0}, {"Triangles": 70000.0}}}
	got := statuses(Evaluate(rows))["mesh.triangles"]
	if got.Status != Pass || got.Value != 90500 || got.Margin != 500 {
		t.Errorf("mesh.triangles = %v, want pass at 90500 with margin +500", got)
	}
	rows["mesh"][0]["Triangles"] = 95000.0
	if got := statuses(Evaluate(rows))["mesh.triangles"]; got.Status != Fail || got.Value != 95000 || got.Margin != -4000 {
		t.Errorf("mesh.triangles = %v, want a failure at 95000 with margin -4000", got)
	}
}

func TestReadDir(t *testing.T) {
	dir := t.TempDir()
	body := "{\"Label\":\"F\",\"Box\":{\"Mean\":0.7}}\n{\"Label\":\"W\",\"Box\":{\"Mean\":4.4}}\n"
	if err := os.WriteFile(filepath.Join(dir, "fig5.jsonl"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil || len(got) != 1 || len(got["fig5"]) != 2 {
		t.Fatalf("ReadDir = %v, %v; want fig5's two rows", got, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "mesh.jsonl"), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil || !strings.Contains(err.Error(), "mesh.jsonl") {
		t.Errorf("ReadDir error %v, want one naming mesh.jsonl", err)
	}
	if _, err := ReadDir(filepath.Join(dir, "fig5.jsonl")); err == nil {
		t.Error("ReadDir accepted a file as a run directory")
	}
}

// TestChangedSections: changedSections counts a changed row, a dropped
// row and a section only one set has, and nothing in sections that match.
func TestChangedSections(t *testing.T) {
	old, cur := goldenRows(t), goldenRows(t)
	cur["fig5"][1]["Mbps"] = -1.0
	cur["mesh"] = cur["mesh"][1:]
	delete(cur, "keypoints")
	got := changedSections(old, cur)
	want := []section{
		{Name: "fig5", Changed: 1, OldRows: len(old["fig5"]), Rows: len(old["fig5"])},
		{Name: "keypoints", Changed: len(old["keypoints"]), OldRows: len(old["keypoints"])},
		{Name: "mesh", Changed: len(old["mesh"]), OldRows: len(old["mesh"]), Rows: len(old["mesh"]) - 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("changedSections = %+v, want %+v", got, want)
	}
	if got := changedSections(old, goldenRows(t)); len(got) != 0 {
		t.Errorf("identical rows: changedSections = %+v", got)
	}
}
