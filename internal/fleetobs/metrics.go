package fleetobs

import (
	"io"
	"strconv"
	"strings"
)

// metricDef is one exposed metric: name, type, help, and the per-run
// value extractor.
type metricDef struct {
	name  string
	typ   string // "counter" or "gauge"
	help  string
	value func(Snapshot) float64
}

// metricDefs is the exposition order; every metric carries a run="<id>"
// label. Counter semantics match the written manifest so scraped totals
// can be reconciled against it.
var metricDefs = []metricDef{
	{"fleet_rows_total", "counter", "Rows emitted through ordered emission.",
		func(s Snapshot) float64 { return float64(s.Rows) }},
	{"fleet_failures_total", "counter", "Units that failed (error, panic or watchdog timeout).",
		func(s Snapshot) float64 { return float64(s.FailuresTotal) }},
	{"fleet_journal_hits_total", "counter", "Units served from the checkpoint journal.",
		func(s Snapshot) float64 { return float64(s.JournalHits) }},
	{"fleet_panics_total", "counter", "Units that panicked (recovered, stack captured).",
		func(s Snapshot) float64 { return float64(s.Panics) }},
	{"fleet_timeouts_total", "counter", "Units abandoned by the per-cell watchdog.",
		func(s Snapshot) float64 { return float64(s.Timeouts) }},
	{"fleet_units_total", "gauge", "Unit universe of the run.",
		func(s Snapshot) float64 { return float64(s.Units) }},
	{"fleet_units_completed", "gauge", "Units at a terminal state (done, failed, skipped, or journal hit).",
		func(s Snapshot) float64 { return float64(s.Done + s.Failed + s.Skipped + s.JournalHits) }},
	{"fleet_window_occupancy", "gauge", "Dispatch-window occupancy: units in flight plus buffered for reorder.",
		func(s Snapshot) float64 { return float64(s.InFlight + s.Buffered) }},
	{"fleet_rows_per_sec", "gauge", "Rows/sec EWMA over ordered emission.",
		func(s Snapshot) float64 { return s.RowsPerSec }},
}

// writeMetrics renders the runs' snapshots in Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE preamble per metric, one sample
// per run with a run="<id>" label. Hand-rolled on strconv — no client
// library, no fmt float formatting.
func writeMetrics(w io.Writer, snaps []Snapshot) error {
	var b strings.Builder
	for _, def := range metricDefs {
		b.WriteString("# HELP ")
		b.WriteString(def.name)
		b.WriteByte(' ')
		b.WriteString(def.help)
		b.WriteString("\n# TYPE ")
		b.WriteString(def.name)
		b.WriteByte(' ')
		b.WriteString(def.typ)
		b.WriteByte('\n')
		for _, s := range snaps {
			b.WriteString(def.name)
			b.WriteString(`{run="`)
			b.WriteString(escapeLabel(s.ID))
			b.WriteString(`"} `)
			b.WriteString(formatSample(def.value(s)))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatSample renders a sample value: integers without a fraction,
// everything else in shortest round-trip form.
func formatSample(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
