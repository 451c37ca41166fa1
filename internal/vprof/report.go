package vprof

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Unlabeled is the reported site name for events scheduled without a site
// label (simtime.SiteID 0).
const Unlabeled = "(unlabeled)"

// ReportFormat tags the first line of every serialized report.
const ReportFormat = "telepresence-vprof/1"

// GapBucket is one nonzero bucket of a site's inter-fire gap histogram:
// Count gaps were >= LtNanos/2 and < LtNanos virtual nanoseconds (the
// bucket at LtNanos=1 counts zero-length gaps; the last bucket saturates
// at MaxInt64).
type GapBucket struct {
	LtNanos int64  `json:"lt_ns"`
	Count   uint64 `json:"count"`
}

// SiteReport is one scheduling site's aggregated profile. Everything but
// CPUNanos is deterministic given the seed.
type SiteReport struct {
	Site          string      `json:"site"`
	Subsystem     string      `json:"subsystem"`
	Events        uint64      `json:"events"`
	EventsPerVSec float64     `json:"events_per_vsec"`
	Gaps          []GapBucket `json:"gaps,omitempty"`
	// CPUNanos is wall-clock CPU charged to the site's callbacks. It is
	// explicitly non-deterministic: WriteJSONL omits it, so serialized
	// reports stay byte-stable. It reaches disk only via WritePprof.
	CPUNanos int64 `json:"-"`
}

// Report is a profile snapshot: per-site counters over a virtual duration.
// Sites are sorted by name, so equal inputs serialize to equal bytes.
type Report struct {
	VirtualNanos int64        `json:"virtual_ns"`
	TotalEvents  uint64       `json:"total_events"`
	Sites        []SiteReport `json:"-"`
}

// bucketLtNanos is bucket k's exclusive upper bound (saturating: the top
// bucket reports MaxInt64).
func bucketLtNanos(k int) int64 {
	if k >= 63 {
		return math.MaxInt64
	}
	return int64(1) << uint(k)
}

// subsystemOf maps a site name to its pprof parent frame: everything
// before the last '.' ("vca/recovery.scan" -> "vca/recovery"). Names
// without a dot are their own subsystem.
func subsystemOf(site string) string {
	if i := strings.LastIndexByte(site, '.'); i > 0 {
		return site[:i]
	}
	return site
}

// sortAndDerive sorts sites by name and recomputes the derived
// events-per-virtual-second rates from the counters.
func (r *Report) sortAndDerive() {
	sort.Slice(r.Sites, func(i, j int) bool { return r.Sites[i].Site < r.Sites[j].Site })
	vsec := float64(r.VirtualNanos) / 1e9
	for i := range r.Sites {
		if vsec > 0 {
			r.Sites[i].EventsPerVSec = float64(r.Sites[i].Events) / vsec
		} else {
			r.Sites[i].EventsPerVSec = 0
		}
	}
}

// WriteJSONL serializes the deterministic half of the report: a header
// line followed by one line per site, keys in fixed order, floats via
// strconv with an explicit format. CPU nanos never appear, so two runs of
// the same seed produce byte-identical files at any worker count.
func (r *Report) WriteJSONL(w io.Writer) error {
	b := make([]byte, 0, 256)
	b = append(b, `{"format":"`...)
	b = append(b, ReportFormat...)
	b = append(b, `","virtual_ns":`...)
	b = strconv.AppendInt(b, r.VirtualNanos, 10)
	b = append(b, `,"total_events":`...)
	b = strconv.AppendUint(b, r.TotalEvents, 10)
	b = append(b, `,"sites":`...)
	b = strconv.AppendInt(b, int64(len(r.Sites)), 10)
	b = append(b, "}\n"...)
	if _, err := w.Write(b); err != nil {
		return err
	}
	for i := range r.Sites {
		s := &r.Sites[i]
		b = b[:0]
		b = append(b, `{"site":`...)
		b = appendJSONString(b, s.Site)
		b = append(b, `,"subsystem":`...)
		b = appendJSONString(b, s.Subsystem)
		b = append(b, `,"events":`...)
		b = strconv.AppendUint(b, s.Events, 10)
		b = append(b, `,"events_per_vsec":`...)
		b = strconv.AppendFloat(b, s.EventsPerVSec, 'f', -1, 64)
		if len(s.Gaps) > 0 {
			b = append(b, `,"gaps":[`...)
			for gi, g := range s.Gaps {
				if gi > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"lt_ns":`...)
				b = strconv.AppendInt(b, g.LtNanos, 10)
				b = append(b, `,"count":`...)
				b = strconv.AppendUint(b, g.Count, 10)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// appendJSONString appends s as a JSON string. Site names are plain ASCII
// identifiers by convention, but escape the JSON specials anyway.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, `\u00`...)
			const hex = "0123456789abcdef"
			b = append(b, hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// ParseReport reads a report serialized by WriteJSONL. It is decode-side
// code off every hot path, so it uses encoding/json line by line.
func ParseReport(rd io.Reader) (*Report, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("vprof: empty report")
	}
	var hdr struct {
		Format       string `json:"format"`
		VirtualNanos int64  `json:"virtual_ns"`
		TotalEvents  uint64 `json:"total_events"`
		Sites        int    `json:"sites"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("vprof: bad report header: %w", err)
	}
	if hdr.Format != ReportFormat {
		return nil, fmt.Errorf("vprof: unknown report format %q", hdr.Format)
	}
	r := &Report{VirtualNanos: hdr.VirtualNanos, TotalEvents: hdr.TotalEvents}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var s SiteReport
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("vprof: bad site line: %w", err)
		}
		r.Sites = append(r.Sites, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(r.Sites) != hdr.Sites {
		return nil, fmt.Errorf("vprof: report truncated: header says %d sites, got %d", hdr.Sites, len(r.Sites))
	}
	return r, nil
}

// Merge sums reports site-by-site (keyed on site name, so profiles from
// different schedulers merge correctly regardless of SiteID assignment).
// Virtual durations add — the merged rate is events per total profiled
// virtual second — and CPU nanos add wherever present. Merging preserves
// determinism: merged counters from per-cell reports are byte-identical at
// any worker count because each input is.
func Merge(reports ...*Report) *Report {
	type acc struct {
		events uint64
		cpu    int64
		gaps   map[int64]uint64
	}
	byName := make(map[string]*acc)
	var names []string
	m := &Report{}
	for _, r := range reports {
		if r == nil {
			continue
		}
		m.VirtualNanos += r.VirtualNanos
		for i := range r.Sites {
			s := &r.Sites[i]
			a := byName[s.Site]
			if a == nil {
				a = &acc{gaps: make(map[int64]uint64)}
				byName[s.Site] = a
				names = append(names, s.Site)
			}
			a.events += s.Events
			a.cpu += s.CPUNanos
			for _, g := range s.Gaps {
				a.gaps[g.LtNanos] += g.Count
			}
			m.TotalEvents += s.Events
		}
	}
	sort.Strings(names)
	for _, name := range names {
		a := byName[name]
		sr := SiteReport{
			Site:      name,
			Subsystem: subsystemOf(name),
			Events:    a.events,
			CPUNanos:  a.cpu,
		}
		lts := make([]int64, 0, len(a.gaps))
		for lt := range a.gaps {
			lts = append(lts, lt)
		}
		sort.Slice(lts, func(i, j int) bool { return lts[i] < lts[j] })
		for _, lt := range lts {
			sr.Gaps = append(sr.Gaps, GapBucket{LtNanos: lt, Count: a.gaps[lt]})
		}
		m.Sites = append(m.Sites, sr)
	}
	m.sortAndDerive()
	return m
}

// Top returns the n hottest sites by wall-CPU nanoseconds, ties broken by
// event count and then by name. A report without CPU (one parsed from
// JSONL) has every CPUNanos at zero and so ranks by events, and that
// ranking is deterministic.
func (r *Report) Top(n int) []SiteReport {
	top := make([]SiteReport, len(r.Sites))
	copy(top, r.Sites)
	sort.Slice(top, func(i, j int) bool {
		a, b := &top[i], &top[j]
		if a.CPUNanos != b.CPUNanos {
			return a.CPUNanos > b.CPUNanos
		}
		if a.Events != b.Events {
			return a.Events > b.Events
		}
		return a.Site < b.Site
	})
	if n > 0 && len(top) > n {
		top = top[:n]
	}
	return top
}

// WriteTop renders the n hottest sites as an aligned text table: site,
// events, events per virtual second, and (when the report carries it) CPU
// milliseconds. Human-facing output, never a golden.
func (r *Report) WriteTop(w io.Writer, n int) error {
	top := r.Top(n)
	hasCPU := false
	for i := range top {
		if top[i].CPUNanos != 0 {
			hasCPU = true
			break
		}
	}
	tw := bufio.NewWriter(w)
	fmt.Fprintf(tw, "vprof: %d sites, %d events over %ss virtual\n",
		len(r.Sites), r.TotalEvents, strconv.FormatFloat(float64(r.VirtualNanos)/1e9, 'f', 3, 64))
	for _, s := range top {
		fmt.Fprintf(tw, "%-32s %12d ev %12s ev/vsec", s.Site, s.Events,
			strconv.FormatFloat(s.EventsPerVSec, 'f', 1, 64))
		if hasCPU {
			fmt.Fprintf(tw, " %10s cpu-ms", strconv.FormatFloat(float64(s.CPUNanos)/1e6, 'f', 2, 64))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
