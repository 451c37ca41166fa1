package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// measure re-executes itself as a pass child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(m.Run())
}

func testRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func testSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join(testRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpec checks BENCHMARK.json against the limits the benchmark is
// declared under and against the workloads the code defines.
func TestSpec(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	ws, err := workloads(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(ws) || len(ws) < 2 || len(ws) > 8 {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(ws))
	}
	seen := map[string]bool{}
	for i, w := range ws {
		ds := spec.Workloads[i]
		if ds.Name != w.name || ds.Why == "" || len(ds.Why) > 200 || strings.Contains(ds.Why, "\n") {
			t.Errorf("workload %d: declared %+v, defined %q", i, ds, w.name)
		}
		seen[ds.Name] = true
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	maxBound, setupBound := 0.0, -1.0
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v not in (0, 0.25]", m.Name, m.Bound)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s declared as %+v", m)
			}
		}
	}
	if setupBound < maxBound {
		t.Errorf("setup_s bound %v, want the largest (%v)", setupBound, maxBound)
	}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad metric %+v", m)
		}
		if seen[m.Name] {
			t.Errorf("name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
}

// TestSmoke runs every workload on its shrunk grid, untraced and traced,
// and checks that the outputs pass and that exactly the declared metrics
// come out, end-to-end ones never 0. Seed 1 also runs the golden
// comparison of fleet_journal's output.
func TestSmoke(t *testing.T) {
	spec := testSpec(t)
	declared := func(ms []metricSpec) []string {
		var s []string
		for _, m := range ms {
			s = append(s, m.Name)
		}
		sort.Strings(s)
		return s
	}
	emitted := func(ms []metric) []string {
		var s []string
		for _, m := range ms {
			s = append(s, m.name)
		}
		sort.Strings(s)
		return s
	}
	ws, err := workloads(true)
	if err != nil {
		t.Fatal(err)
	}
	c := runConfig{root: testRoot(t), work: t.TempDir(), seed: 1, seconds: 0.2, short: true}
	for _, w := range ws {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := c.measure(w, traced)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.problems) > 0 || res.failed > 0 || res.attempted < 1 {
					t.Errorf("traced=%t: problems %q, %d of %d failed", traced, res.problems, res.failed, res.attempted)
				}
				want := declared(spec.EndToEnd)
				if traced {
					want = declared(spec.PerLayer)
				}
				if got := emitted(res.metrics); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("traced=%t: emitted %v\ndeclared %v", traced, got, want)
				}
				for _, m := range res.metrics {
					if !traced && !(m.value > 0) {
						t.Errorf("%s = %v, want > 0", m.name, m.value)
					}
				}
				if w.golden && !traced && !strings.Contains(strings.Join(res.notes, "\n"), "golden: 4 sections compared, 0 differ") {
					t.Errorf("no golden comparison in notes %q", res.notes)
				}
			}
		})
	}
}

// TestGoldenCheck shows the golden comparison passes on the golden rows
// and catches a one-byte change, and that fig4 is compared on its leading
// rows only.
func TestGoldenCheck(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(testRoot(t), goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	golden := parseGolden(data)
	fresh := func() output {
		o := output{bodies: map[string][]byte{}}
		for n := range goldenChecked {
			o.names = append(o.names, n)
			o.bodies[n] = append([]byte(nil), golden[n]...)
		}
		sort.Strings(o.names)
		o.bodies["fig4"] = append(o.bodies["fig4"], golden["fig4"]...) // a longer fig4 run
		return o
	}
	if n, problems := checkGolden(golden, fresh()); n != len(goldenChecked) || len(problems) > 0 {
		t.Fatalf("golden rows: %d compared, problems %q", n, problems)
	}
	for _, tc := range []struct {
		section string
		at      int // byte offset into the section
		caught  bool
	}{
		{"servers", 10, true},
		{"recovery", len(golden["recovery"]) - 5, true},
		{"fig4", 12, true},
		{"fig4", len(golden["fig4"]) + 12, false}, // beyond the compared rows
	} {
		o := fresh()
		o.bodies[tc.section][tc.at] ^= 0x01
		_, problems := checkGolden(golden, o)
		if caught := len(problems) == 1 && strings.Contains(problems[0], tc.section); caught != tc.caught {
			t.Errorf("byte %d of %s flipped: problems %q, want caught=%t", tc.at, tc.section, problems, tc.caught)
		}
	}
}

//go:noinline
func spin(n int) float64 {
	s := 1.0
	for i := 0; i < n; i++ {
		s = s*1.0000001 + 1e-9
	}
	return s
}

var spinSink float64

// TestParseCPUProfile decodes a real runtime CPU profile: the function
// that burned the CPU must hold most of the self time.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		spinSink += spin(1 << 16)
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total, spun int64
	for fn, ns := range p.selfNs {
		total += ns
		if strings.HasSuffix(fn, ".spin") {
			spun += ns
		}
	}
	if p.samples < 10 || total <= 0 || spun*2 < total {
		t.Fatalf("%d samples, %d ns total, %d ns in spin: %v", p.samples, total, spun, p.selfNs)
	}
	if _, err := parseCPUProfile(bytes.NewReader([]byte{0x0a, 0x05, 0x01})); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestPkgBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"telepresence/internal/video.(*Encoder).Encode":                  "video",
		"telepresence/internal/entropy.(*Compressor).emit":               "entropy",
		"telepresence/internal/keypoints.Generate":                       "other",
		"telepresence/internal/core.rowSlice[go.shape.struct { a/b.c }]": "core",
		"math.Exp":                               "math",
		"math/bits.Len64":                        "math",
		"math/rand.(*Rand).Float64":              "math_rand",
		"encoding/json.(*encodeState).string":    "encoding_json",
		"runtime.mallocgc":                       "runtime",
		"internal/runtime/atomic.(*Uint32).Load": "runtime",
		"internal/runtime/syscall.Syscall6":      "syscall",
		"syscall.Syscall":                        "syscall",
		"crypto/sha256.block":                    "other",
		"":                                       "other",
	} {
		if got := pkgBucket(fn); got != want {
			t.Errorf("pkgBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	around := func(c, step float64) []float64 {
		s := make([]float64, 10)
		for i := range s {
			s[i] = c + step*float64(i%5-2)
		}
		return s
	}
	// rotated pairs the same spread of values out of phase, so the change
	// wins some pairs and loses others.
	rotated := func(c, step float64) []float64 {
		s := around(c, step)
		return append(s[2:], s[:2]...)
	}
	for _, tc := range []struct {
		name         string
		base, head   []float64
		higherBetter bool
		want         string
	}{
		{"faster", around(100, 0.5), around(90, 0.5), false, "improved"},
		{"slower", around(100, 0.5), around(110, 0.5), false, "regressed"},
		{"within bound", around(100, 0.5), rotated(100.5, 0.5), false, "unchanged"},
		{"clear loss within bound", around(100, 0.5), around(102, 0.5), false, "regressed"},
		{"noisy parent", around(100, 10), around(104, 10), false, "unresolved"},
		{"throughput drop", around(100, 0.5), around(90, 0.5), true, "regressed"},
		{"throughput gain", around(100, 0.5), around(110, 0.5), true, "improved"},
		{"too few pairs", around(100, 0.5)[:9], around(90, 0.5)[:9], false, "unresolved"},
	} {
		if got := judge(tc.base, tc.head, tc.higherBetter, 0.05).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFlagsRowsAndRegressions(t *testing.T) {
	bound := 0.05
	spec := benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: &bound}},
	}
	recs := func(rate float64, hash string) []record {
		var rs []record
		for i := 0; i < minPairs; i++ {
			rs = append(rs, record{Workload: "w", Seed: int64(i), RowsSHA256: hash, Result: result{
				Correct: true, Metrics: map[string]value{"rows_per_s": {rate + float64(i%3)*0.01, "rows/s"}},
			}})
		}
		return rs
	}
	var out strings.Builder
	if compare(spec, recs(10, "a"), recs(10, "a"), &out) || strings.Contains(out.String(), "ROWS CHANGED") {
		t.Errorf("identical runs flagged:\n%s", out.String())
	}
	out.Reset()
	if !compare(spec, recs(10, "a"), recs(8, "b"), &out) || !strings.Contains(out.String(), "ROWS CHANGED") {
		t.Errorf("a slower change with new rows was not flagged:\n%s", out.String())
	}
}
