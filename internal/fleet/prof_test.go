package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"telepresence/internal/core"
	"telepresence/internal/vprof"
)

// TestProfFilesDeterministicAcrossWorkers pins the profiler's fleet-level
// determinism contract: per-cell deterministic profile reports — and the
// run-level merge built from them — are byte-identical whether the cells
// run sequentially or race across eight workers, because every counter in
// them derives from virtual time and cell-derived seeds only. (The pprof
// outputs carry wall CPU and are deliberately NOT compared.)
func TestProfFilesDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full burstloss sessions")
	}
	exps, err := Select("burstloss")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Quick(5)
	run := func(workers int) (string, map[string][]byte, []HotSite) {
		dir := t.TempDir()
		o := opts
		o.ProfDir = dir
		if _, _, err := runRows(exps, o, Config{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		hot, err := MergeProfiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), core.ProfJSONLSuffix) {
				continue
			}
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return dir, files, hot
	}
	seqDir, seq, seqHot := run(1)
	_, par, parHot := run(8)

	if len(seq) < 2 {
		t.Fatalf("expected per-cell reports plus a merge, got %d files", len(seq))
	}
	if _, ok := seq[MergedProfJSONL]; !ok {
		t.Fatalf("no %s written", MergedProfJSONL)
	}
	for name, b := range seq {
		pb, ok := par[name]
		if !ok {
			t.Errorf("parallel run missing %s", name)
			continue
		}
		if !bytes.Equal(b, pb) {
			t.Errorf("%s differs between workers=1 and workers=8", name)
		}
	}
	if len(seq) != len(par) {
		t.Errorf("file count differs: %d vs %d", len(seq), len(par))
	}

	// The hot-site ranking orders by wall CPU, which differs between runs,
	// so which sites make the top differs too. What stays deterministic is
	// each named site's event count: it must equal the merged JSONL count
	// in both runs. The ranking must be by CPU, highest first.
	if len(seqHot) == 0 {
		t.Fatal("no hot sites from a profiled run")
	}
	if len(seqHot) != len(parHot) {
		t.Fatalf("hot site count differs: %d vs %d", len(seqHot), len(parHot))
	}
	merged, err := vprof.ParseReport(bytes.NewReader(seq[MergedProfJSONL]))
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]uint64{}
	for _, s := range merged.Sites {
		events[s.Site] = s.Events
	}
	for _, run := range []struct {
		name string
		hot  []HotSite
	}{{"workers=1", seqHot}, {"workers=8", parHot}} {
		name, hot := run.name, run.hot
		for i, h := range hot {
			if want, ok := events[h.Site]; !ok || h.Events != want {
				t.Errorf("%s hot site %d: %s/%d, merged JSONL has %d (present %v)", name, i, h.Site, h.Events, want, ok)
			}
			if i > 0 && h.CPUNano > hot[i-1].CPUNano {
				t.Errorf("%s hot site %d (%s, %d ns) outranks %s (%d ns) on CPU", name, i, h.Site, h.CPUNano, hot[i-1].Site, hot[i-1].CPUNano)
			}
		}
	}

	// The merged pprof output parses back into a report whose deterministic
	// counters match the merged JSONL report exactly.
	pprofFile, err := os.Open(filepath.Join(seqDir, MergedProfPprof))
	if err != nil {
		t.Fatal(err)
	}
	defer pprofFile.Close()
	fromPprof, err := vprof.ParsePprof(pprofFile)
	if err != nil {
		t.Fatal(err)
	}
	fromJSONL, err := vprof.ParseReport(bytes.NewReader(seq[MergedProfJSONL]))
	if err != nil {
		t.Fatal(err)
	}
	if fromPprof.TotalEvents != fromJSONL.TotalEvents || len(fromPprof.Sites) != len(fromJSONL.Sites) {
		t.Errorf("pprof merge (%d events, %d sites) disagrees with JSONL merge (%d events, %d sites)",
			fromPprof.TotalEvents, len(fromPprof.Sites), fromJSONL.TotalEvents, len(fromJSONL.Sites))
	}
	for i := range fromPprof.Sites {
		if i < len(fromJSONL.Sites) && fromPprof.Sites[i].Site != fromJSONL.Sites[i].Site {
			t.Errorf("site %d: pprof %q vs jsonl %q", i, fromPprof.Sites[i].Site, fromJSONL.Sites[i].Site)
		}
	}
}

// TestMergeProfilesEmptyDir pins the no-op contract: a directory with no
// profile files merges to nothing without error.
func TestMergeProfilesEmptyDir(t *testing.T) {
	hot, err := MergeProfiles(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if hot != nil {
		t.Errorf("hot sites from empty dir: %v", hot)
	}
}
