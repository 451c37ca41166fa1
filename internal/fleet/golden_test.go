package fleet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"telepresence/internal/core"
)

// regenGolden rewrites the checked-in golden suite output. Run it only when a
// row-format or experiment-definition change is *intended* to alter results:
//
//	go test ./internal/fleet -run TestGoldenSuite -regen-golden
var regenGolden = flag.Bool("regen-golden", false, "rewrite testdata/golden_suite.jsonl")

const goldenPath = "testdata/golden_suite.jsonl"

// streamJSONL runs exps through RunStream with one JSONL sink per
// experiment and returns each experiment's bytes keyed by name.
func streamJSONL(exps []core.Experiment, opts core.Options, cfg Config) ([]ExperimentResult, map[string][]byte, error) {
	bufs := map[string]*bytes.Buffer{}
	results, err := RunStream(exps, opts, cfg, func(e core.Experiment) (Sink, error) {
		bufs[e.Name] = &bytes.Buffer{}
		return NewJSONLSink(bufs[e.Name]), nil
	})
	out := map[string][]byte{}
	for name, b := range bufs {
		out[name] = b.Bytes()
	}
	return results, out, err
}

// suiteJSONL runs the given experiments at the golden options and returns
// each one's JSONL, keyed by name.
func suiteJSONL(t *testing.T, exps []core.Experiment, workers int) map[string][]byte {
	t.Helper()
	_, out, err := streamJSONL(exps, testOpts(1), Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fullSuiteW1 caches the workers=1 full-suite run: it is both the golden
// comparison subject and the sequential side of the worker-determinism
// check, so sharing it saves a full multi-minute suite run per `go test`.
var fullSuiteW1 struct {
	once   sync.Once
	byName map[string][]byte
}

func fullSuite(t *testing.T) map[string][]byte {
	t.Helper()
	fullSuiteW1.once.Do(func() {
		fullSuiteW1.byName = suiteJSONL(t, core.Experiments(), 1)
	})
	if fullSuiteW1.byName == nil {
		t.Fatal("full-suite run failed in an earlier test")
	}
	return fullSuiteW1.byName
}

// renderSuite flattens per-experiment JSONL into the golden byte stream:
// experiments sorted by name, each prefixed with a '#' header line.
func renderSuite(byName map[string][]byte) []byte {
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&buf, "# %s\n", name)
		buf.Write(byName[name])
	}
	return buf.Bytes()
}

// subsetExperiments trims every experiment to its first repetition: the
// -short golden and determinism subset. Because the fleet merges rows in
// rep order, a 1-rep run's rows are a byte prefix of the full run's rows.
func subsetExperiments(exps []core.Experiment) []core.Experiment {
	out := make([]core.Experiment, len(exps))
	for i, e := range exps {
		orig := e.Reps
		e.Reps = func(o core.Options) int {
			if n := orig(o); n < 1 {
				return n
			}
			return 1
		}
		out[i] = e
	}
	return out
}

// goldenSections splits the golden file into per-experiment JSONL bodies.
func goldenSections(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	sections := map[string][]byte{}
	var name string
	var body []byte
	flush := func() {
		if name != "" {
			sections[name] = body
		}
	}
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("# ")) {
			flush()
			name = string(bytes.TrimSpace(line[2:]))
			body = nil
			continue
		}
		body = append(body, line...)
	}
	flush()
	if len(sections) == 0 {
		t.Fatalf("golden file has no sections")
	}
	return sections
}

// TestGoldenSuite pins every experiment row to the checked-in output:
// changes to the session hot path, the scheduler, or any substrate must not
// move a single byte of any experiment result. In -short mode each
// experiment runs its first repetition only and is checked as a byte prefix
// of its golden section — real golden coverage in seconds instead of the
// multi-minute full-suite run (which CI still performs non-short).
func TestGoldenSuite(t *testing.T) {
	if *regenGolden {
		got := renderSuite(fullSuite(t))
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -regen-golden): %v", err)
	}
	if testing.Short() {
		got := suiteJSONL(t, subsetExperiments(core.Experiments()), 1)
		sections := goldenSections(t, want)
		if len(got) != len(sections) {
			t.Fatalf("experiment count %d differs from golden sections %d", len(got), len(sections))
		}
		for name, rows := range got {
			section, ok := sections[name]
			if !ok {
				t.Errorf("%s: no golden section (regen needed?)", name)
				continue
			}
			if len(rows) == 0 {
				t.Errorf("%s: 1-rep subset emitted no rows", name)
				continue
			}
			if !bytes.HasPrefix(section, rows) {
				t.Errorf("%s: 1-rep rows are not a prefix of the golden section\ngot:    %.200s\ngolden: %.200s",
					name, rows, section)
			}
		}
		return
	}
	got := renderSuite(fullSuite(t))
	if bytes.Equal(want, got) {
		return
	}
	// Pin down the first diverging line so failures are actionable.
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Fatalf("suite output diverges from golden at line %d:\nwant: %.300s\ngot:  %.300s", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("suite output length differs from golden: want %d lines, got %d", len(wl), len(gl))
}
