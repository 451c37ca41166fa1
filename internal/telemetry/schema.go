package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// FieldKind is the JSON type a schema field must carry.
type FieldKind uint8

const (
	// Number is a JSON number that is a finite float64.
	Number FieldKind = iota
	// String is a JSON string.
	String
	// Bool is a JSON true/false.
	Bool
	// Integer is a JSON number written as an integer that fits an int.
	Integer
)

func (k FieldKind) String() string {
	switch k {
	case Number:
		return "number"
	case String:
		return "string"
	case Bool:
		return "bool"
	case Integer:
		return "integer"
	}
	return "unknown"
}

// Field is one typed attribute of an event beyond the common envelope.
type Field struct {
	Name string
	Kind FieldKind
}

// Schema maps category → event → required fields. Every emitted line
// carries the envelope (t_ms number, cat string, ev string) plus exactly
// the fields listed here — no optional attributes, which keeps traces
// column-stable for downstream tooling.
var Schema = map[string]map[string][]Field{
	"netem": {
		"enqueue":  {{"link", String}, {"size", Integer}, {"queue", Integer}, {"tx_ms", Number}},
		"drop":     {{"link", String}, {"size", Integer}, {"kind", String}},
		"deliver":  {{"link", String}, {"size", Integer}},
		"ge_state": {{"link", String}, {"bad", Bool}},
	},
	"rate": {
		"report": {{"sender", Integer}, {"loss", Number}, {"owd_ms", Number}, {"rate_bps", Number}},
		"target": {{"sender", Integer}, {"target_bps", Number}, {"applied_bps", Number}, {"reason", String}},
	},
	"recovery": {
		"nack_sent":     {{"sender", Integer}, {"receiver", Integer}, {"seqs", Integer}},
		"nack_answered": {{"sender", Integer}, {"count", Integer}, {"misses", Integer}},
		"parity_sent":   {{"sender", Integer}, {"size", Integer}},
		"repair":        {{"sender", Integer}, {"receiver", Integer}, {"kind", String}, {"count", Integer}},
		"expire":        {{"sender", Integer}, {"receiver", Integer}, {"count", Integer}},
	},
	"vca": {
		"frame_sent":        {{"sender", Integer}, {"size", Integer}},
		"frame_thinned":     {{"sender", Integer}},
		"frame_decoded":     {{"sender", Integer}, {"receiver", Integer}, {"lat_ms", Number}, {"live", Bool}},
		"frame_undecodable": {{"sender", Integer}, {"receiver", Integer}},
		"frame_timeout":     {{"sender", Integer}, {"receiver", Integer}, {"count", Integer}},
	},
}

// SchemaDoc renders the schema as a deterministic human-readable listing
// (for `vpfleet trace schema` style introspection and docs).
func SchemaDoc() string {
	var sb strings.Builder
	cats := make([]string, 0, len(Schema))
	for c := range Schema {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		evs := make([]string, 0, len(Schema[c]))
		for e := range Schema[c] {
			evs = append(evs, e)
		}
		sort.Strings(evs)
		for _, e := range evs {
			fmt.Fprintf(&sb, "%s/%s:", c, e)
			for _, f := range Schema[c][e] {
				fmt.Fprintf(&sb, " %s=%s", f.Name, f.Kind)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// maxTraceMs is the latest virtual time a trace line can carry: the end of
// simtime's int64-nanosecond clock.
const maxTraceMs = float64(math.MaxInt64) / 1e6

// hasKind reports whether a JSON raw value is of kind k. A Number must be
// a finite float64 and an Integer must fit an int, so that whatever
// ValidateLine accepts also decodes into Summarize's typed fields.
func hasKind(raw json.RawMessage, k FieldKind) bool {
	if len(raw) == 0 {
		return false
	}
	switch c := raw[0]; {
	case c == '"':
		return k == String
	case c == 't' || c == 'f':
		return k == Bool
	case c == '-' || (c >= '0' && c <= '9'):
		switch k {
		case Number:
			_, err := strconv.ParseFloat(string(raw), 64)
			return err == nil
		case Integer:
			_, err := strconv.ParseInt(string(raw), 10, strconv.IntSize)
			return err == nil
		}
	}
	return false
}

// ValidateLine checks one trace line against the event schema: valid JSON,
// complete envelope with t_ms a virtual time (a Number in [0, maxTraceMs]),
// a known cat/ev pair, every declared field present with the declared type,
// and no undeclared fields.
func ValidateLine(line []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(line, &m); err != nil {
		return fmt.Errorf("telemetry: invalid JSON: %w", err)
	}
	if !hasKind(m["t_ms"], Number) {
		return fmt.Errorf("telemetry: missing or non-numeric t_ms")
	}
	if tMs, _ := strconv.ParseFloat(string(m["t_ms"]), 64); !(tMs >= 0 && tMs <= maxTraceMs) {
		return fmt.Errorf("telemetry: t_ms %s outside the virtual clock's range", m["t_ms"])
	}
	var cat, ev string
	if err := json.Unmarshal(m["cat"], &cat); err != nil {
		return fmt.Errorf("telemetry: missing or non-string cat")
	}
	if err := json.Unmarshal(m["ev"], &ev); err != nil {
		return fmt.Errorf("telemetry: missing or non-string ev")
	}
	events, ok := Schema[cat]
	if !ok {
		return fmt.Errorf("telemetry: unknown category %q", cat)
	}
	fields, ok := events[ev]
	if !ok {
		return fmt.Errorf("telemetry: unknown event %s/%s", cat, ev)
	}
	for _, f := range fields {
		raw, ok := m[f.Name]
		if !ok {
			return fmt.Errorf("telemetry: %s/%s missing field %q", cat, ev, f.Name)
		}
		if !hasKind(raw, f.Kind) {
			return fmt.Errorf("telemetry: %s/%s field %q is not a %s", cat, ev, f.Name, f.Kind)
		}
	}
	if want := len(fields) + 3; len(m) != want {
		// Report the lexically first undeclared field: with several extras
		// on one line, ranging the map directly would name a different one
		// each run, and validator output must be as deterministic as the
		// traces it polices.
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if k == "t_ms" || k == "cat" || k == "ev" {
				continue
			}
			known := false
			for _, f := range fields {
				if f.Name == k {
					known = true
					break
				}
			}
			if !known {
				return fmt.Errorf("telemetry: %s/%s has undeclared field %q", cat, ev, k)
			}
		}
	}
	return nil
}
