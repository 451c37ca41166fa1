// Trace import: build schedules from externally authored network traces.
//
// Two formats are supported, matching how weak-network conditions are
// distributed in practice:
//
//   - CSV timelines ("time_s,delay_ms,rate_kbps,loss" — column order free,
//     unknown columns ignored), the declarative form of a tc script.
//   - Packet-opportunity traces in the mahimahi mm-link format that
//     VideoTransDemo's generate-weak-network-trace.py emits: one integer
//     millisecond timestamp per line, each line granting one MTU-sized
//     delivery opportunity. These flatten to a piecewise rate schedule.
package scenario

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"telepresence/internal/simtime"
)

// TraceMTUBytes is the per-opportunity grant of a mahimahi-style trace
// (1500-byte MTU, as in mm-link and VideoTransDemo's generator).
const TraceMTUBytes = 1500

// ParseCSV reads a CSV impairment timeline into a schedule of steps. The
// header row names the columns; recognized names (case-insensitive):
//
//	time_s    event offset in seconds (required)
//	delay_ms  extra one-way delay
//	rate_kbps rate cap in kbit/s (0 = uncapped)
//	rate_bps  rate cap in bit/s (alternative to rate_kbps)
//	loss      independent loss probability
//
// Rows must be in non-decreasing time order. Unknown columns are ignored,
// so traces with extra annotation columns import unchanged.
func ParseCSV(r io.Reader) (*Schedule, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("scenario: trace header: %w", err)
	}
	col := map[string]int{}
	for i, name := range header {
		col[strings.ToLower(strings.TrimSpace(name))] = i
	}
	if _, ok := col["time_s"]; !ok {
		return nil, fmt.Errorf("scenario: trace missing required column time_s (have %v)", header)
	}
	if _, kbps := col["rate_kbps"]; kbps {
		if _, bps := col["rate_bps"]; bps {
			return nil, fmt.Errorf("scenario: trace has both rate_kbps and rate_bps columns; keep one")
		}
	}
	field := func(rec []string, name string) (float64, bool, error) {
		i, ok := col[name]
		if !ok || i >= len(rec) || strings.TrimSpace(rec[i]) == "" {
			return 0, false, nil
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[i]), 64)
		if err != nil {
			return 0, false, fmt.Errorf("scenario: trace column %s: %w", name, err)
		}
		// ParseFloat accepts "NaN" and "Inf"; neither is a usable
		// impairment value or timestamp.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, false, fmt.Errorf("scenario: trace column %s: non-finite value %v", name, v)
		}
		return v, true, nil
	}

	s := New()
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: trace line %d: %w", line+1, err)
		}
		line++
		ts, ok, err := field(rec, "time_s")
		if err != nil || !ok {
			if err == nil {
				err = fmt.Errorf("scenario: trace line %d: empty time_s", line)
			}
			return nil, err
		}
		var imp Impairment
		if v, ok, err := field(rec, "delay_ms"); err != nil {
			return nil, err
		} else if ok {
			imp.ExtraDelayMs = v
		}
		if v, ok, err := field(rec, "rate_kbps"); err != nil {
			return nil, err
		} else if ok {
			imp.RateBps = v * 1e3
		}
		if v, ok, err := field(rec, "rate_bps"); err != nil {
			return nil, err
		} else if ok {
			imp.RateBps = v
		}
		if v, ok, err := field(rec, "loss"); err != nil {
			return nil, err
		} else if ok {
			imp.LossProb = v
		}
		// The nanosecond offset must fit an int64: Go leaves an
		// out-of-range float-to-int conversion to the platform.
		ns := ts * float64(simtime.Second)
		if !(math.Abs(ns) < math.MaxInt64) {
			return nil, fmt.Errorf("scenario: trace line %d: time_s %g out of range", line, ts)
		}
		s.StepAt(simtime.Duration(ns), imp)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Len() == 0 {
		return nil, fmt.Errorf("scenario: trace has no rows")
	}
	return s, nil
}

// ParseMahimahi reads a mahimahi mm-link packet-opportunity trace (the
// VideoTransDemo weak-network format: one integer millisecond timestamp per
// line, one 1500-byte delivery opportunity each) and flattens it to a
// piecewise rate-cap schedule: opportunities are counted in bin-wide
// windows and each window becomes one rate step. bin <= 0 selects one
// second, the granularity of the generator's sinusoid.
func ParseMahimahi(r io.Reader, bin simtime.Duration) (*Schedule, error) {
	if bin <= 0 {
		bin = simtime.Second
	}
	sc := bufio.NewScanner(r)
	var stamps []float64 // milliseconds
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		v, err := strconv.ParseFloat(txt, 64)
		if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("scenario: mahimahi trace line %d: bad timestamp %q", line, txt)
		}
		if n := len(stamps); n > 0 && v < stamps[n-1] {
			return nil, fmt.Errorf("scenario: mahimahi trace line %d: timestamp %g before %g", line, v, stamps[n-1])
		}
		stamps = append(stamps, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: mahimahi trace: %w", err)
	}
	if len(stamps) == 0 {
		return nil, fmt.Errorf("scenario: mahimahi trace has no opportunities")
	}

	binMs := float64(bin) / float64(simtime.Millisecond)
	end := stamps[len(stamps)-1]
	// Bound the bin count before sizing anything from it: a single absurd
	// timestamp in an externally authored file must produce an error, not
	// a terabyte allocation or a float->int overflow panic.
	const maxBins = 1 << 20
	if end/binMs >= maxBins {
		return nil, fmt.Errorf("scenario: mahimahi trace spans %.0f bins of %v (max %d); check timestamps and bin width",
			end/binMs, bin, maxBins)
	}
	nbins := int(end/binMs) + 1
	counts := make([]int, nbins)
	for _, ts := range stamps {
		counts[int(ts/binMs)]++
	}
	s := New()
	binSec := float64(bin) / float64(simtime.Second)
	floor := float64(TraceMTUBytes*8) / binSec
	for i, c := range counts {
		rate := float64(c*TraceMTUBytes*8) / binSec
		if rate < floor {
			// A window with no opportunities is an outage. Rate 0 would
			// mean "uncapped" to the shaper, and a token rate would wedge
			// the serializer for hours of virtual time; one MTU per bin is
			// the fluid equivalent of mm-link's behavior (the head packet
			// waits for the next window's opportunity).
			rate = floor
		}
		s.StepAt(simtime.Duration(i)*bin, Impairment{RateBps: rate})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
