// Package capture implements the paper's measurement vantage point: a
// wiretap on the WiFi AP links recording every frame's timestamp, size,
// direction and payload prefix (§3.2, "We use Wireshark on each AP to
// capture and analyze network traffic"). Payloads stay encrypted; the
// analysis package classifies from header bytes and the capture measures
// from sizes alone, exactly as the paper had to.
//
// By default a Capture is a streaming aggregator: per link it maintains
// online 1-second throughput bins, per-direction frame/byte counters and
// (when a Classifier is installed) per-protocol packet counts, all computed
// at the tap — O(session seconds) memory instead of O(packets), and no
// payload copies. Full per-packet records are an opt-in (SetRetain) used by
// tests and the passive-QoE experiment, which needs packet timing.
package capture

import (
	"telepresence/internal/netem"
	"telepresence/internal/simtime"
	"telepresence/internal/stats"
)

// SnapLen bounds how much payload each retained record keeps, like
// tcpdump's -s.
const SnapLen = 64

// Record is one captured frame (retained mode only).
type Record struct {
	At   simtime.Time
	Size int
	Dir  netem.Direction
	Link string
	// Payload holds up to SnapLen bytes of the frame payload.
	Payload []byte
}

// Classifier assigns a small non-negative class index (e.g. a protocol) to
// a payload prefix. Classification happens synchronously at the tap, so no
// payload bytes need to be retained.
type Classifier func(payload []byte) int

// maxClasses bounds the classifier's index range.
const maxClasses = 8

// nDirections covers netem.Ingress, Egress and Dropped.
const nDirections = 3

// LinkAgg is the streaming per-link aggregate a tap maintains.
type LinkAgg struct {
	Link string

	// Frames and Bytes count per direction (indexed by netem.Direction).
	Frames [nDirections]int64
	Bytes  [nDirections]int64

	// Egress throughput binning (EgressThroughputSample).
	haveEgress  bool
	first, last simtime.Time
	bins        []int64

	// Egress protocol counts by classifier index.
	classes [maxClasses]int64
}

// Capture accumulates aggregates (and optionally records) from one or more
// link taps.
type Capture struct {
	Name string
	// BinWidth is the egress throughput binning window; the paper's
	// analysis uses 1-second bins. Set before attaching taps.
	BinWidth simtime.Duration

	classifier Classifier
	retain     bool
	records    []Record
	aggs       []*LinkAgg
	byLink     map[string]*LinkAgg
}

// New returns an empty, streaming-mode capture.
func New(name string) *Capture {
	return &Capture{Name: name, BinWidth: simtime.Second, byLink: map[string]*LinkAgg{}}
}

// SetRetain toggles full per-packet record retention (with payload
// prefixes). Retention costs O(packets) memory; enable it only when record-
// level analysis is required. Call before traffic flows.
func (c *Capture) SetRetain(retain bool) { c.retain = retain }

// Retaining reports whether full records are kept.
func (c *Capture) Retaining() bool { return c.retain }

// SetClassifier installs the streaming protocol classifier applied to every
// delivered frame. Call before traffic flows.
func (c *Capture) SetClassifier(fn Classifier) { c.classifier = fn }

// agg returns (creating if needed) the aggregate for a link name.
func (c *Capture) agg(linkName string) *LinkAgg {
	if a, ok := c.byLink[linkName]; ok {
		return a
	}
	a := &LinkAgg{Link: linkName}
	c.aggs = append(c.aggs, a)
	c.byLink[linkName] = a
	return a
}

// TapFor returns a netem.Tap that observes frames traversing the named link.
func (c *Capture) TapFor(linkName string) netem.Tap {
	a := c.agg(linkName)
	return func(now simtime.Time, f netem.Frame, dir netem.Direction) {
		a.Frames[dir]++
		a.Bytes[dir] += int64(f.Size)
		if dir == netem.Egress {
			if !a.haveEgress {
				a.haveEgress = true
				a.first = now
			}
			a.last = now
			bin := int(now.Sub(a.first) / c.BinWidth)
			for bin >= len(a.bins) {
				a.bins = append(a.bins, 0)
			}
			a.bins[bin] += int64(f.Size)
			if c.classifier != nil && len(f.Payload) > 0 {
				if cl := c.classifier(f.Payload); cl >= 0 && cl < maxClasses {
					a.classes[cl]++
				}
			}
		}
		if c.retain {
			r := Record{At: now, Size: f.Size, Dir: dir, Link: linkName}
			if n := len(f.Payload); n > 0 {
				if n > SnapLen {
					n = SnapLen
				}
				r.Payload = append([]byte(nil), f.Payload[:n]...)
			}
			c.records = append(c.records, r)
		}
	}
}

// Attach installs taps on all the given links.
func (c *Capture) Attach(links ...*netem.Link) {
	for _, l := range links {
		l.AddTap(c.TapFor(l.Name()))
	}
}

// Agg returns the streaming aggregate for a link, or nil if the link was
// never attached.
func (c *Capture) Agg(linkName string) *LinkAgg { return c.byLink[linkName] }

// EgressThroughputSample bins the link's delivered bytes into BinWidth
// windows and returns one Mbps sample per full window, dropping the first
// and last (partial) windows as the paper's tools do.
func (c *Capture) EgressThroughputSample(linkName string) *stats.Sample {
	a := c.byLink[linkName]
	if a == nil || !a.haveEgress {
		return &stats.Sample{}
	}
	n := int(a.last.Sub(a.first)/c.BinWidth) + 1
	binSec := float64(c.BinWidth) / float64(simtime.Second)
	lo, hi := 0, n
	if n > 2 {
		lo, hi = 1, n-1
	}
	s := stats.NewSampleCap(hi - lo)
	for i := lo; i < hi; i++ {
		var b int64
		if i < len(a.bins) {
			b = a.bins[i]
		}
		s.Add(float64(b) * 8 / binSec / 1e6)
	}
	return s
}

// DominantClass sums the egress classifier counts over the named links and
// returns the nonzero class with the most packets (ties to the lowest
// index), or 0 when nothing was classified. Class 0 is reserved for
// "unknown" and never wins.
func (c *Capture) DominantClass(linkNames ...string) (best int, counts [maxClasses]int64) {
	for _, name := range linkNames {
		if a := c.byLink[name]; a != nil {
			for i, n := range a.classes {
				counts[i] += n
			}
		}
	}
	bestN := int64(0)
	for i := 1; i < maxClasses; i++ {
		if counts[i] > bestN {
			best, bestN = i, counts[i]
		}
	}
	return best, counts
}

// Records returns all captured records (not a copy). Empty unless retention
// is enabled.
func (c *Capture) Records() []Record { return c.records }

// Len reports the number of observed frames (all directions, all links).
func (c *Capture) Len() int {
	if c.retain {
		return len(c.records)
	}
	var n int64
	for _, a := range c.aggs {
		n += a.Frames[netem.Ingress] + a.Frames[netem.Egress] + a.Frames[netem.Dropped]
	}
	return int(n)
}

// Reset clears records and aggregates.
func (c *Capture) Reset() {
	c.records = c.records[:0]
	for _, a := range c.aggs {
		*a = LinkAgg{Link: a.Link}
	}
}

// Filter returns the retained records matching pred.
func (c *Capture) Filter(pred func(Record) bool) []Record {
	var out []Record
	for _, r := range c.records {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// Egress returns only delivered frames — what a passive observer on the far
// side of the AP counts as throughput. Retained mode only.
func (c *Capture) Egress() []Record {
	return c.Filter(func(r Record) bool { return r.Dir == netem.Egress })
}
