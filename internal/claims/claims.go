// Package claims is the paper's quantitative findings as one checked
// table. Each entry gives the paper's section or figure, the value the
// paper prints, a measure over experiment rows and the band the measure
// must fall in. Rows are decoded JSON objects keyed by experiment name,
// the shape every JSONL sink writes, so tests, `vpfleet claims` and the
// golden check share one evaluator and decode no row into its Go type.
package claims

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"text/tabwriter"

	"telepresence/internal/core"
)

// Rows holds each experiment's rows in sink order, keyed by experiment
// name; numbers decode as float64. An absent experiment was not run.
type Rows map[string][]map[string]any

// Band is the accepted range of a measured value; an infinite bound is
// absent. A strict band excludes its finite endpoints.
type Band struct {
	Lo, Hi float64
	Strict bool
}

// Contains reports whether v lies in the band. NaN lies in no band.
func (b Band) Contains(v float64) bool {
	if b.Strict {
		return v > b.Lo && v < b.Hi
	}
	return v >= b.Lo && v <= b.Hi
}

func (b Band) String() string {
	if b.Strict {
		return fmt.Sprintf("(%.5g, %.5g)", b.Lo, b.Hi)
	}
	return fmt.Sprintf("[%.5g, %.5g]", b.Lo, b.Hi)
}

// Band constructors, named for the comparison an entry makes.
func atLeast(x float64) Band        { return Band{Lo: x, Hi: math.Inf(1)} }
func above(x float64) Band          { return Band{Lo: x, Hi: math.Inf(1), Strict: true} }
func atMost(x float64) Band         { return Band{Lo: math.Inf(-1), Hi: x} }
func below(x float64) Band          { return Band{Lo: math.Inf(-1), Hi: x, Strict: true} }
func within(lo, hi float64) Band    { return Band{Lo: lo, Hi: hi} }
func between(lo, hi float64) Band   { return Band{Lo: lo, Hi: hi, Strict: true} }
func exactly(x float64) Band        { return Band{Lo: x, Hi: x} }
func around(center, d float64) Band { return within(center-d, center+d) }

// Entry is one checked claim: it passes when every value its measure
// reads lies in its band.
type Entry struct {
	ID      string // "<experiment>.<claim>"
	Source  string // the paper's section or figure
	Paper   string // the paper's value as printed; empty for a sanity check
	Claim   string // what the measure reads, in words
	Measure Measure
	Band    Band
}

// Status is an entry's outcome over one set of rows.
type Status string

const (
	Pass   Status = "pass"
	Fail   Status = "FAIL"
	NotRun Status = "not run" // an experiment the entry reads is absent
)

// Result is one evaluated entry: the value with the least margin inside
// the band (negative outside) and that margin, or the reason the measure
// could not be read (a failure) or was not run.
type Result struct {
	Entry         Entry
	Status        Status
	Value, Margin float64
	Err           error
}

// String is the result's report line, tab-separated: status, entry,
// value, band, margin, the paper's section and printed value, and for a
// failure what the measure reads and any read error.
func (r Result) String() string {
	tail := ""
	if r.Status == Fail {
		tail = "\t" + r.Entry.Claim
		if r.Err != nil {
			tail += ": " + r.Err.Error()
		}
	}
	return fmt.Sprintf("%s\t%s\t%s\t%v\t%s\t%s\t%s%s",
		r.Status, r.Entry.ID, r.valueText(), r.Entry.Band, r.marginText(), r.Entry.Source, r.Entry.Paper, tail)
}

// Evaluate checks every entry of Table against rows.
func Evaluate(rows Rows) []Result {
	var out []Result
	for _, e := range Table() {
		out = append(out, evaluate(e, rows))
	}
	return out
}

func evaluate(e Entry, rows Rows) (r Result) {
	r = Result{Entry: e, Status: Pass, Margin: math.Inf(1)}
	defer func() {
		switch p := recover().(type) {
		case nil:
		case notRun:
			r.Status, r.Err = NotRun, fmt.Errorf("no %s rows", string(p))
		case readError:
			r.Status, r.Err = Fail, p.error
		default:
			panic(p)
		}
	}()
	for _, v := range e.Measure(rows) {
		if !e.Band.Contains(v) {
			r.Status = Fail
		}
		if m := math.Min(v-e.Band.Lo, e.Band.Hi-v); !(m >= r.Margin) {
			r.Value, r.Margin = v, m
		}
	}
	return r
}

// Report writes a table of results and a tally, and returns how many
// entries failed.
func Report(w io.Writer, results []Result) (failed int, err error) {
	counts := map[Status]int{}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "status\tentry\tvalue\tband\tmargin\tsource\tpaper")
	for _, r := range results {
		counts[r.Status]++
		fmt.Fprintln(tw, r)
	}
	if err := tw.Flush(); err != nil {
		return counts[Fail], err
	}
	_, err = fmt.Fprintf(w, "\n%d pass, %d fail, %d not run\n", counts[Pass], counts[Fail], counts[NotRun])
	return counts[Fail], err
}

// Parse reads JSONL rows: a stream of JSON objects, one per line.
func Parse(r io.Reader) ([]map[string]any, error) {
	rows := []map[string]any{}
	for dec := json.NewDecoder(r); dec.More(); {
		var row map[string]any
		if err := dec.Decode(&row); err != nil {
			return nil, fmt.Errorf("row %d: %w", len(rows)+1, err)
		}
		if row == nil {
			return nil, fmt.Errorf("row %d is null", len(rows)+1)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ReadDir reads the <experiment>.jsonl file of every registered experiment
// in a run directory; experiments without a file are left out.
func ReadDir(dir string) (Rows, error) {
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("%s is not a run directory", dir)
	}
	out := Rows{}
	for _, e := range core.Experiments() {
		f, err := os.Open(filepath.Join(dir, e.Name+".jsonl"))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err == nil {
			out[e.Name], err = Parse(f)
			f.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("%s.jsonl: %w", e.Name, err)
		}
	}
	return out, nil
}

// section counts the rows of one experiment that differ between two sets
// of rows: rows at the same position that decode differently, plus rows
// only one set has.
type section struct {
	Name          string
	Changed       int
	OldRows, Rows int
}

// changedSections lists, by name, the experiments whose rows differ
// between from and to, including an experiment only one of them ran.
func changedSections(from, to Rows) []section {
	var out []section
	for _, e := range core.Experiments() {
		a, b := from[e.Name], to[e.Name]
		s := section{Name: e.Name, OldRows: len(a), Rows: len(b)}
		s.Changed = max(len(a), len(b)) - min(len(a), len(b))
		for i := range min(len(a), len(b)) {
			if !reflect.DeepEqual(a[i], b[i]) {
				s.Changed++
			}
		}
		if s.Changed > 0 {
			out = append(out, s)
		}
	}
	return out
}

// ReportDiff evaluates the table over the rows of an old run (from) and a
// new one (to) and writes, per entry, its status (as "old -> new" when it
// changed), its value in each, the value's relative change and its margin
// in each; then the changed sections and a tally. It returns how many
// entries changed status.
func ReportDiff(w io.Writer, from, to Rows) (flipped int, err error) {
	before, after := Evaluate(from), Evaluate(to)
	moved := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "status\tentry\told value\tnew value\tchange\told margin\tnew margin")
	for i, a := range after {
		b := before[i]
		status := string(a.Status)
		if b.Status != a.Status {
			status = fmt.Sprintf("%s -> %s", b.Status, a.Status)
			flipped++
		}
		change := "-"
		if b.Err == nil && a.Err == nil {
			change = relChange(b.Value, a.Value)
			if a.Value != b.Value {
				moved++
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", status, a.Entry.ID,
			b.valueText(), a.valueText(), change, b.marginText(), a.marginText())
	}
	if err := tw.Flush(); err != nil {
		return flipped, err
	}
	sections := changedSections(from, to)
	if len(sections) > 0 {
		fmt.Fprintln(tw, "\nsection\trows changed\trows\told rows")
		for _, s := range sections {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", s.Name, s.Changed, s.Rows, s.OldRows)
		}
		if err := tw.Flush(); err != nil {
			return flipped, err
		}
	}
	_, err = fmt.Fprintf(w, "\n%d entries: %d changed status, %d values moved; %d sections changed\n",
		len(after), flipped, moved, len(sections))
	return flipped, err
}

// relChange formats the change from a to b, relative to a unless a is 0.
func relChange(a, b float64) string {
	switch {
	case a == b:
		return "0"
	case a == 0:
		return fmt.Sprintf("%+.3g", b-a)
	}
	return fmt.Sprintf("%+.3g%%", 100*(b-a)/math.Abs(a))
}

func (r Result) valueText() string {
	if r.Err != nil {
		return "-"
	}
	return fmt.Sprintf("%.5g", r.Value)
}

func (r Result) marginText() string {
	if r.Err != nil {
		return "-"
	}
	return fmt.Sprintf("%+.5g", r.Margin)
}
