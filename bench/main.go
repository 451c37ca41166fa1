// Command bench measures the telepresence simulator end to end and layer by
// layer. It drives the program only through its public entry points —
// fleet.RunStream and fleet.RunSweepStream with core.Options, observed by a
// fleet.Monitor and, when traced, core.Options.ProfDir and a runtime CPU
// profile — and runs every pass of a workload in a fresh child process, so
// CPU time and peak memory belong to that pass alone.
//
// Usage, from the repository root (bench/run.sh builds from source first):
//
//	bash bench/run.sh [run] [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bash bench/run.sh trace [flags]        run -trace 1
//	bash bench/run.sh compare BASE.jsonl HEAD.jsonl
//
// run prints each metric as "workload name value unit" and ends each
// workload with one JSON line {correct, attempted, failed, metrics}; -out
// appends the same result, with rows_sha256 and host context, as one JSON
// record per workload. The exit code is 0 when every output check passed,
// 1 when one failed or the benchmark could not run, and 2 on bad usage.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage:
  bench [run] [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
  bench trace [run flags]
  bench compare BASE.jsonl HEAD.jsonl
`

func run(args []string, stdout, stderr io.Writer) int {
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		return runCmd(args, 0, stdout, stderr)
	case "trace":
		return runCmd(args, 1, stdout, stderr)
	case "compare":
		return compareCmd(args, stdout, stderr)
	case "child":
		return childMain(args, stdout)
	}
	fmt.Fprint(stderr, usage)
	return 2
}

// hostInfo is the context a measurement is only comparable within.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line that ends each workload's output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one workload run as -out stores it and compare reads it.
type record struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	Passes     int      `json:"passes"`
	RowsSHA256 string   `json:"rows_sha256"`
	Host       hostInfo `json:"host"`
	Result     result   `json:"result"`
}

func runCmd(args []string, trace int, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workloads (default: all)")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 20, "measured seconds per workload (trace mode measures twice)")
		out     = fs.String("out", "", "append one JSON record per workload to this file")
	)
	fs.IntVar(&trace, "trace", trace, "1 reports per-layer metrics from an untraced and a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || !(*seconds > 0) {
		fmt.Fprint(stderr, usage)
		return 2
	}
	all, err := workloads(false)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	selected := all
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			w, err := findWorkload(n, false)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
			selected = append(selected, w)
		}
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	c := runConfig{root: root, work: work, seed: *seed, seconds: *seconds}
	host := hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s %s/%s\n", host.NProc, host.GOMAXPROCS, host.Go, host.OS, host.Arch)
	rc := 0
	for _, w := range selected {
		res, err := c.measure(w, trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rec := record{
			Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: trace,
			Passes: res.passes, RowsSHA256: res.hash, Host: host,
			Result: result{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}},
		}
		for _, m := range res.metrics {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				res.problem("%s is not a finite number", m.name)
				m.value = 0
			}
			rec.Result.Metrics[m.name] = value{m.value, m.unit}
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit)
		}
		fmt.Fprintf(stdout, "%s rows_sha256 %s\n", w.name, res.hash)
		for _, n := range res.notes {
			fmt.Fprintf(stdout, "# %s %s\n", w.name, n)
		}
		for _, p := range res.problems {
			fmt.Fprintf(stdout, "# %s FAIL %s\n", w.name, p)
		}
		rec.Result.Correct = len(res.problems) == 0 && res.failed == 0
		if !rec.Result.Correct {
			rc = 1
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	return rc
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// findRoot returns the nearest directory at or above the working directory
// that holds BENCHMARK.json: the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}
