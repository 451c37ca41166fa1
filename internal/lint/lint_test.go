package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtureConfig retargets every check at the fixture package paths under
// testdata/src, exercising the same matching machinery DefaultConfig uses
// on the real tree.
func fixtureConfig() *Config {
	return &Config{
		DeterministicPackages:   []string{"det"},
		MapOrderExtraPackages:   []string{"sink"},
		GlobalrandAllowPackages: []string{"simrandish"},
		HotPathPackages:         []string{"hot"},
		HotJSONAllowFiles:       []string{"hot/reader.go"},
		EncoderPackages:         []string{"enc"},
	}
}

// TestFixtures is the mini-analysistest: every package under testdata/src
// runs through all checks plus the pragma machinery, and the findings must
// match the `// want "substring"` expectation comments line for line —
// positives, negatives, pragma-allow, stale-pragma, and malformed-pragma
// cases alike.
func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	groups, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fixtureConfig()
	loader := NewLoader()
	ranAny := false
	for _, g := range groups {
		if !g.IsDir() {
			continue
		}
		pkgDirs, err := os.ReadDir(filepath.Join(root, g.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, pd := range pkgDirs {
			if !pd.IsDir() {
				continue
			}
			ranAny = true
			dir := filepath.Join(root, g.Name(), pd.Name())
			name := g.Name() + "/" + pd.Name()
			t.Run(name, func(t *testing.T) {
				pkg, err := loader.LoadDir(dir, name)
				if err != nil {
					t.Fatal(err)
				}
				for _, te := range pkg.TypeErrors {
					t.Errorf("fixture does not type-check: %v", te)
				}
				findings := Run([]*Package{pkg}, Checks(), cfg)
				checkExpectations(t, pkg, findings)
			})
		}
	}
	if !ranAny {
		t.Fatal("no fixture packages found under testdata/src")
	}
}

// wantRe captures the quoted-string list after a `want` marker in a
// comment; quotedRe then splits the individual expectations.
var (
	wantRe   = regexp.MustCompile(`\bwant\s+((?:"(?:[^"\\]|\\.)*"\s*)+)`)
	quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

func checkExpectations(t *testing.T, pkg *Package, findings []Finding) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]string{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want expectation %s: %v", pos.Filename, pos.Line, q, err)
					}
					wants[k] = append(wants[k], s)
				}
			}
		}
	}

	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		matched := -1
		for i, w := range wants[k] {
			if strings.Contains(f.String(), w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s:%d: expected finding matching %q, got none", k.file, k.line, w)
		}
	}
}

// TestSeededCorpus pins the acceptance contract: running the real
// DefaultConfig over the seeded-violation tree (whose directory suffixes
// match the production package sets) reports every check at least once.
func TestSeededCorpus(t *testing.T) {
	pkgs, err := Load(".", []string{"testdata/seeded/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 3 {
		t.Fatalf("expected >=3 seeded packages, got %d", len(pkgs))
	}
	findings := Run(pkgs, Checks(), DefaultConfig())
	byCheck := map[string]int{}
	for _, f := range findings {
		byCheck[f.Check]++
	}
	for _, c := range Checks() {
		if byCheck[c.Name()] == 0 {
			t.Errorf("seeded corpus produced no %s findings (got %v)", c.Name(), byCheck)
		}
	}
}

// TestSeededFleetobs pins the fleetobs exemption boundary: the seeded
// fleetobs package uses time.Now-ish wall clock and encoding/json with
// no findings (both sanctioned there), while its map-ranged metrics
// output and value-dependent float verb are still caught.
func TestSeededFleetobs(t *testing.T) {
	loader := NewLoader()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "seeded", "internal", "fleetobs"),
		"seed/internal/fleetobs")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{pkg}, Checks(), DefaultConfig())
	byCheck := map[string]int{}
	for _, f := range findings {
		byCheck[f.Check]++
	}
	if byCheck["walltime"] != 0 || byCheck["hotjson"] != 0 {
		t.Errorf("fleetobs must be exempt from walltime/hotjson, got %v", byCheck)
	}
	if byCheck["maporder"] == 0 {
		t.Errorf("seeded map-ranged metrics output not caught: %v", byCheck)
	}
	if byCheck["floatfmt"] == 0 {
		t.Errorf("seeded %%g float verb not caught: %v", byCheck)
	}
}

// TestSeededVprof pins the vprof exemption boundary: the seeded vprof
// package uses time.Now-ish wall clock with no finding (CPU attribution
// is sanctioned there), while its map-ranged report output and
// value-dependent float verb are still caught.
func TestSeededVprof(t *testing.T) {
	loader := NewLoader()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "seeded", "internal", "vprof"),
		"seed/internal/vprof")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{pkg}, Checks(), DefaultConfig())
	byCheck := map[string]int{}
	for _, f := range findings {
		byCheck[f.Check]++
	}
	if byCheck["walltime"] != 0 {
		t.Errorf("vprof must be exempt from walltime, got %v", byCheck)
	}
	if byCheck["maporder"] == 0 {
		t.Errorf("seeded map-ranged report output not caught: %v", byCheck)
	}
	if byCheck["floatfmt"] == 0 {
		t.Errorf("seeded %%g float verb not caught: %v", byCheck)
	}
}

// TestDefaultConfigTargets pins which real packages each check patrols.
func TestDefaultConfigTargets(t *testing.T) {
	cfg := DefaultConfig()
	pkgAt := func(path string) *Package { return &Package{Path: path} }
	cases := []struct {
		check Check
		path  string
		want  bool
	}{
		{walltimeCheck{}, "telepresence/internal/simtime", true},
		{walltimeCheck{}, "telepresence/internal/netem", true},
		{walltimeCheck{}, "telepresence/internal/fleet", false}, // the watchdog is wall time by design
		{walltimeCheck{}, "telepresence/cmd/vpfleet", false},
		{walltimeCheck{}, "telepresence/internal/fleetobs", false}, // EWMA/uptime are wall time by design
		{walltimeCheck{}, "telepresence/internal/vprof", false},    // CPU attribution is wall time by design
		{globalrandCheck{}, "telepresence/internal/vca", true},
		{globalrandCheck{}, "telepresence/internal/simrand", false}, // the one sanctioned wrapper
		{maporderCheck{}, "telepresence/internal/quic", true},
		{maporderCheck{}, "telepresence/internal/fleet", true},    // manifests/sinks emit map-derived bytes
		{maporderCheck{}, "telepresence/internal/fleetobs", true}, // API/metrics ordering must not leak map order
		{maporderCheck{}, "telepresence/internal/vprof", true},    // merged reports are byte-compared artifacts
		{maporderCheck{}, "telepresence/internal/stats", false},
		{hotjsonCheck{}, "telepresence/internal/telemetry", true},
		{hotjsonCheck{}, "telepresence/internal/rtp", true},
		{hotjsonCheck{}, "telepresence/internal/core", false},
		{hotjsonCheck{}, "telepresence/internal/fleetobs", false}, // JSON API responses are off the hot path
		{floatfmtCheck{}, "telepresence/internal/fleet", true},
		{floatfmtCheck{}, "telepresence/internal/stats", true},
		{floatfmtCheck{}, "telepresence/internal/fleetobs", true}, // Prometheus text + progress line
		{floatfmtCheck{}, "telepresence/internal/vprof", true},    // byte-stable JSONL report floats
		{floatfmtCheck{}, "telepresence/internal/netem", false},
	}
	for _, c := range cases {
		if got := c.check.Applies(pkgAt(c.path), cfg); got != c.want {
			t.Errorf("%s.Applies(%s) = %v, want %v", c.check.Name(), c.path, got, c.want)
		}
	}
	if !matchFile("/abs/path/internal/telemetry/summary.go", cfg.HotJSONAllowFiles) {
		t.Error("summary.go should be hotjson-allowlisted")
	}
	if matchFile("/abs/path/internal/telemetry/tracer.go", cfg.HotJSONAllowFiles) {
		t.Error("tracer.go must not be hotjson-allowlisted")
	}
}

func TestChecksByName(t *testing.T) {
	got, err := ChecksByName([]string{"maporder", "walltime"})
	if err != nil || len(got) != 2 || got[0].Name() != "maporder" || got[1].Name() != "walltime" {
		t.Fatalf("ChecksByName = %v, %v", got, err)
	}
	if _, err := ChecksByName([]string{"nosuch"}); err == nil {
		t.Fatal("expected error for unknown check")
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   []verbArg
	}{
		{"plain", nil},
		{"%d", []verbArg{{'d', 0}}},
		{"%v %g", []verbArg{{'v', 0}, {'g', 1}}},
		{"100%% %v", []verbArg{{'v', 0}}},
		{"%-8.3f", []verbArg{{'f', 0}}},
		{"%*.*f", []verbArg{{'f', 2}}},
		{"%[2]v %[1]d", []verbArg{{'v', 1}, {'d', 0}}},
		{"%+v", []verbArg{{'v', 0}}},
	}
	for _, c := range cases {
		if got := formatVerbs(c.format); !reflect.DeepEqual(got, c.want) {
			t.Errorf("formatVerbs(%q) = %v, want %v", c.format, got, c.want)
		}
	}
}

// TestFindingString pins the report format the CI step greps.
func TestFindingString(t *testing.T) {
	f := Finding{Check: "walltime", Message: "no"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 7
	if got, want := f.String(), "a/b.go:7: [walltime] no"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestRunSortsFindings guards the analyzer's own determinism: findings
// come out ordered by file, line, check regardless of check order.
func TestRunSortsFindings(t *testing.T) {
	loader := NewLoader()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "seeded", "internal", "netem"), "seed/internal/netem")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{pkg}, Checks(), DefaultConfig())
	if len(findings) < 3 {
		t.Fatalf("expected several findings, got %v", findings)
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.Pos.Line > b.Pos.Line {
			t.Errorf("findings out of order: %s before %s", fmtFinding(a), fmtFinding(b))
		}
	}
}

func fmtFinding(f Finding) string {
	return fmt.Sprintf("%s:%d [%s]", f.Pos.Filename, f.Pos.Line, f.Check)
}
