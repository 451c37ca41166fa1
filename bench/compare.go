package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// minPairs is the least number of parent/change pairs a verdict rests on.
const minPairs = 10

// verdict is one metric's comparison over paired runs.
type verdict struct {
	base, head [3]float64 // quartiles
	win        float64    // share of pairs the change reads better in
	worse      float64    // relative change of the median, positive = worse
	verdict    string
}

// judge applies the paired-run rule to one metric:
// improved when the change wins at least nine tenths of the pairs (ties
// count for neither) and the medians differ by more than the parent's
// interquartile range; regressed when the parent wins by that same rule,
// so a clear loss inside a wide bound still shows; unresolved when the
// parent's own spread exceeds the bound (a share of the parent's median),
// unless every change run beats every parent run; regressed when the
// change's median is worse by more than the bound; else unchanged.
func judge(base, head []float64, higherBetter bool, bound float64) verdict {
	var v verdict
	for i, q := range []float64{0.25, 0.5, 0.75} {
		v.base[i], v.head[i] = quantile(base, q), quantile(head, q)
	}
	if len(base) < minPairs || len(head) != len(base) {
		v.verdict = "unresolved"
		return v
	}
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	wins, losses := 0, 0
	for i := range base {
		if better(head[i], base[i]) {
			wins++
		}
		if better(base[i], head[i]) {
			losses++
		}
	}
	v.win = float64(wins) / float64(len(base))
	loss := float64(losses) / float64(len(base))
	bm, hm := v.base[1], v.head[1]
	if bm != 0 {
		v.worse = (hm - bm) / bm
		if higherBetter {
			v.worse = -v.worse
		}
	}
	spread := v.base[2] - v.base[0]
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				allBetter = false
			}
		}
	}
	switch {
	case v.win >= 0.9 && better(hm, bm) && abs(hm-bm) > spread:
		v.verdict = "improved"
	case loss >= 0.9 && better(bm, hm) && abs(hm-bm) > spread:
		v.verdict = "regressed"
	case bm != 0 && spread/abs(bm) > bound && !allBetter:
		v.verdict = "unresolved"
	case v.worse > bound:
		v.verdict = "regressed"
	default:
		v.verdict = "unchanged"
	}
	return v
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareCmd pairs the i-th record of each workload in BASE with the i-th
// in HEAD (run them alternately) and prints a verdict per end-to-end
// metric, with the bounds of the repository's BENCHMARK.json. It exits 1
// when any metric regressed.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	head, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	if compare(spec, base, head, stdout) {
		return 1
	}
	return 0
}

// compare prints the comparison and reports whether any metric regressed.
func compare(spec benchSpec, base, head []record, w io.Writer) (regressed bool) {
	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			if r.Trace == 0 {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	bw, hw := byWorkload(base), byWorkload(head)
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', 4, 64) }
	fmt.Fprintln(w, "workload metric base[q1 med q3] head[q1 med q3] worse win verdict")
	for _, ws := range spec.Workloads {
		b, h := bw[ws.Name], hw[ws.Name]
		n := min(len(b), len(h))
		if n < minPairs {
			fmt.Fprintf(w, "# %s: %d pairs, %d needed; verdicts unresolved\n", ws.Name, n, minPairs)
		}
		b, h = b[:n], h[:n]
		for i := range b {
			if b[i].Seed == h[i].Seed && b[i].RowsSHA256 != h[i].RowsSHA256 {
				fmt.Fprintf(w, "# %s: ROWS CHANGED at seed %d: %s -> %s\n", ws.Name, b[i].Seed, b[i].RowsSHA256, h[i].RowsSHA256)
			}
			if !b[i].Result.Correct || !h[i].Result.Correct {
				fmt.Fprintf(w, "# %s: pair %d has a failed output check\n", ws.Name, i)
			}
		}
		for _, m := range spec.EndToEnd {
			var bv, hv []float64
			for i := range b {
				bv = append(bv, b[i].Result.Metrics[m.Name].Value)
				hv = append(hv, h[i].Result.Metrics[m.Name].Value)
			}
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			v := judge(bv, hv, m.Better == "higher", bound)
			fmt.Fprintf(w, "%s %s [%s %s %s] [%s %s %s] %+.2f%% %.2f %s\n", ws.Name, m.Name,
				f(v.base[0]), f(v.base[1]), f(v.base[2]), f(v.head[0]), f(v.head[1]), f(v.head[2]),
				100*v.worse, v.win, v.verdict)
			if v.verdict == "regressed" {
				regressed = true
			}
		}
	}
	return regressed
}
