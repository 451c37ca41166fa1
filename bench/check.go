package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// goldenPath is the fleet's pinned suite output, relative to the
// repository root.
const goldenPath = "internal/fleet/testdata/golden_suite.jsonl"

// goldenChecked lists the golden sections the benchmark compares, with the
// number of leading rows compared (0: the whole section). fig4's golden
// section holds its first two repetitions, which lead any longer run.
var goldenChecked = map[string]int{
	"recovery":  0,
	"fig5":      0,
	"anycast":   0,
	"servers":   0,
	"protocols": 0,
	"fig4":      2 * fig4RowsPerRep,
}

// output is one pass's emitted rows: each section's JSONL body, in
// emission order.
type output struct {
	names  []string
	bodies map[string][]byte
}

// readOutput loads the named sections a pass wrote into dir.
func readOutput(dir string, names []string) (output, error) {
	out := output{names: names, bodies: map[string][]byte{}}
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n+".jsonl"))
		if err != nil {
			return out, err
		}
		out.bodies[n] = b
	}
	return out, nil
}

// rows counts emitted rows (lines) over every section.
func (o output) rows() int {
	n := 0
	for _, b := range o.bodies {
		n += bytes.Count(b, []byte("\n"))
	}
	return n
}

// sha256 hashes the output in the golden file's layout: each section as a
// "# name" header line followed by its rows.
func (o output) sha256() string {
	h := sha256.New()
	for _, n := range o.names {
		fmt.Fprintf(h, "# %s\n", n)
		h.Write(o.bodies[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parseGolden splits the golden file into per-section JSONL bodies.
func parseGolden(data []byte) map[string][]byte {
	sections := map[string][]byte{}
	name := ""
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("# ")) {
			name = string(bytes.TrimSpace(line[2:]))
			sections[name] = []byte{}
			continue
		}
		if name != "" {
			sections[name] = append(sections[name], line...)
		}
	}
	return sections
}

// checkGolden compares every golden-checked section of o with the golden
// suite and describes each mismatch. It returns how many sections it
// compared.
func checkGolden(golden map[string][]byte, o output) (compared int, problems []string) {
	for _, n := range o.names {
		lead, ok := goldenChecked[n]
		if !ok {
			continue
		}
		compared++
		want, ok := golden[n]
		if !ok {
			problems = append(problems, fmt.Sprintf("golden: no section %q", n))
			continue
		}
		got := o.bodies[n]
		if lead > 0 {
			got = leadingLines(got, lead)
			want = leadingLines(want, lead)
		}
		if bytes.Equal(got, want) {
			continue
		}
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		line := 0
		for line < len(gl) && line < len(wl) && bytes.Equal(gl[line], wl[line]) {
			line++
		}
		problems = append(problems, fmt.Sprintf("golden: %s differs at row %d", n, line+1))
	}
	return compared, problems
}

// leadingLines returns the first n newline-terminated lines of b.
func leadingLines(b []byte, n int) []byte {
	end := 0
	for i := 0; i < n; i++ {
		j := bytes.IndexByte(b[end:], '\n')
		if j < 0 {
			return b
		}
		end += j + 1
	}
	return b[:end]
}
