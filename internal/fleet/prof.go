package fleet

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"telepresence/internal/core"
	"telepresence/internal/vprof"
)

// MergedProfJSONL / MergedProfPprof name the run-level profile artifacts
// MergeProfiles writes next to the per-cell files.
const (
	MergedProfJSONL = "merged" + core.ProfJSONLSuffix
	MergedProfPprof = "merged" + core.ProfPprofSuffix
)

// HotSite is one entry of a manifest's hot_sites ranking: a scheduling
// site and its merged deterministic event count, plus wall CPU when the
// pprof inputs carried it. With CPU the ranking is by CPU (vprof.Report.Top)
// and, like every manifest timing, not deterministic; without it the
// ranking is by events and is.
type HotSite struct {
	Site    string `json:"site"`
	Events  uint64 `json:"events"`
	CPUNano int64  `json:"cpu_ns,omitempty"`
}

// HotSitesN is how many sites MergeProfiles ranks into a manifest.
const HotSitesN = 5

// MergeProfiles merges every per-unit profile a run left in dir into
// run-level artifacts and returns the hot-site ranking for the manifest.
//
//   - All *.vprof.jsonl files (the deterministic site counters) merge into
//     merged.vprof.jsonl. Each input is worker-count-invariant, and
//     vprof.Merge keys on site names in sorted order, so the merged file is
//     byte-identical at any worker count too.
//   - All *.vprof.pb.gz files (pprof, additionally carrying wall CPU)
//     merge into merged.vprof.pb.gz, stamped with the merge wall time so
//     `go tool pprof` displays when the profile was assembled.
//
// Previous merged outputs in dir are ignored as inputs, so reruns
// overwrite rather than compound. A dir with no per-unit profiles yields
// (nil, nil): not an error, just nothing to merge.
func MergeProfiles(dir string) ([]HotSite, error) {
	jsonls, err := profInputs(dir, core.ProfJSONLSuffix)
	if err != nil {
		return nil, err
	}
	pprofs, err := profInputs(dir, core.ProfPprofSuffix)
	if err != nil {
		return nil, err
	}
	if len(jsonls) == 0 && len(pprofs) == 0 {
		return nil, nil
	}

	var det *vprof.Report
	if len(jsonls) > 0 {
		reports := make([]*vprof.Report, 0, len(jsonls))
		for _, path := range jsonls {
			r, err := readProf(path, vprof.ParseReport)
			if err != nil {
				return nil, err
			}
			reports = append(reports, r)
		}
		det = vprof.Merge(reports...)
		err := writeProf(filepath.Join(dir, MergedProfJSONL), func(w *bufio.Writer) error {
			return det.WriteJSONL(w)
		})
		if err != nil {
			return nil, err
		}
	}

	ranked := det
	if len(pprofs) > 0 {
		reports := make([]*vprof.Report, 0, len(pprofs))
		for _, path := range pprofs {
			r, err := readProf(path, vprof.ParsePprof)
			if err != nil {
				return nil, err
			}
			reports = append(reports, r)
		}
		cpu := vprof.Merge(reports...)
		stamp := time.Now().UnixNano()
		err := writeProf(filepath.Join(dir, MergedProfPprof), func(w *bufio.Writer) error {
			return cpu.WritePprof(w, stamp)
		})
		if err != nil {
			return nil, err
		}
		// Rank from the pprof merge when present: same deterministic event
		// counts as the JSONL merge, plus the CPU attribution to rank by.
		ranked = cpu
	}
	if ranked == nil {
		return nil, nil
	}
	var hot []HotSite
	for _, s := range ranked.Top(HotSitesN) {
		hot = append(hot, HotSite{Site: s.Site, Events: s.Events, CPUNano: s.CPUNanos})
	}
	return hot, nil
}

// profInputs lists dir's per-unit profile files with the given suffix,
// sorted by name (merge order never changes the result, but a stable walk
// makes failures reproducible). Merged outputs are excluded.
func profInputs(dir, suffix string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: prof dir: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, suffix) || strings.HasPrefix(name, "merged.") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// readProf parses one profile file with the given decoder.
func readProf(path string, parse func(rd io.Reader) (*vprof.Report, error)) (*vprof.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: prof input: %w", err)
	}
	defer f.Close()
	r, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("fleet: prof input %s: %w", filepath.Base(path), err)
	}
	return r, nil
}

// writeProf writes one merged artifact through a buffered writer.
func writeProf(path string, emit func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fleet: prof output: %w", err)
	}
	b := bufio.NewWriterSize(f, 1<<16)
	if err := emit(b); err != nil {
		f.Close()
		return fmt.Errorf("fleet: prof output %s: %w", filepath.Base(path), err)
	}
	if err := b.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("fleet: prof output %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("fleet: prof output %s: %w", filepath.Base(path), err)
	}
	return nil
}
