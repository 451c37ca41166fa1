package vca

import (
	"fmt"

	"telepresence/internal/geo"
	"telepresence/internal/simrand"
	"telepresence/internal/stats"
)

// RTTProbe is the TCP-ping stand-in (§3.2: the paper runs TCP pings because
// the providers drop ICMP): it samples round-trip times between a vantage
// point and a provider server through the path model.
type RTTProbe struct {
	Model geo.PathModel
	// ExtraServerMs adds provider-specific processing (the paper's Webex
	// CA server showed elevated RTTs).
	ExtraServerMs map[string]float64
}

// NewRTTProbe returns a probe with the default path model.
func NewRTTProbe() *RTTProbe {
	return &RTTProbe{
		Model: geo.DefaultPathModel(),
		// Calibrated to the one outlier in Figure 4: Webex's California
		// server exceeded 100 ms for far clients.
		ExtraServerMs: map[string]float64{"Webex/CA": 18},
	}
}

// Measure samples reps RTTs between the vantage point and the server of the
// given app: each is the pair's fixed path delay, computed once, plus a
// jitter draw plus the server's extra delay, added in that order (the rows'
// bytes depend on it).
func (p *RTTProbe) Measure(app App, server, vantage geo.Location, rng *simrand.Source, reps int) *stats.Sample {
	s := stats.NewSampleCap(reps)
	p.sample(s, p.extraMs(app, server), server, vantage, rng, reps)
	return s
}

// extraMs returns the server's provider-specific extra delay, keyed
// "app/server" in ExtraServerMs.
func (p *RTTProbe) extraMs(app App, server geo.Location) float64 {
	return p.ExtraServerMs[app.String()+"/"+server.Name]
}

// sample appends Measure's reps RTT draws to dst, with the server's extra
// delay given.
func (p *RTTProbe) sample(dst *stats.Sample, extra float64, server, vantage geo.Location, rng *simrand.Source, reps int) {
	base := p.Model.BaseRTTMs(vantage, server)
	for i := 0; i < reps; i++ {
		dst.Add(base + p.Model.JitterMs(rng) + extra)
	}
}

// SeriesKey names one CDF line of Figure 4, e.g. "CA-F".
type SeriesKey struct {
	App    App
	Server geo.Location
}

// Label renders the paper's legend form: server abbreviation, dash, app
// initial.
func (k SeriesKey) Label() string {
	return fmt.Sprintf("%s-%c", k.Server.Name, k.App.String()[0])
}

// Fig4Series measures the full Figure 4 matrix: every provider server
// probed from all nine vantage points, reps samples each. Results are keyed
// by the paper's series labels.
func Fig4Series(rng *simrand.Source, repsPerVantage int) map[string]*stats.Sample {
	probe := NewRTTProbe()
	vantages := geo.VantagePoints()
	out := map[string]*stats.Sample{}
	for _, app := range Apps() {
		spec := SpecFor(app)
		for _, srv := range spec.Servers {
			label := SeriesKey{App: app, Server: srv}.Label()
			extra := probe.extraMs(app, srv)
			agg := stats.NewSampleCap(len(vantages) * repsPerVantage)
			for _, vp := range vantages {
				probe.sample(agg, extra, srv, vp, rng.Split(label+vp.Name), repsPerVantage)
			}
			out[label] = agg
		}
	}
	return out
}

// AnycastVerdict is the outcome of the anycast check for one server.
type AnycastVerdict struct {
	Server  geo.Location
	Anycast bool
	// Evidence holds the vantage pair violating the speed-of-light bound
	// when Anycast is true.
	Evidence string
}

// DetectAnycast applies the prior-work test the paper uses (§4.1): if the
// same server address shows minimum RTTs from two vantage points that sum
// to less than the minimum RTT between those vantage points, one physical
// site cannot explain both measurements and the address must be anycast.
// minRTTs maps vantage name to the minimum RTT (ms) observed toward the
// server.
func DetectAnycast(server geo.Location, minRTTs map[string]float64) AnycastVerdict {
	vps := geo.VantagePoints()
	for i := 0; i < len(vps); i++ {
		for j := i + 1; j < len(vps); j++ {
			a, b := vps[i], vps[j]
			ra, okA := minRTTs[a.Name]
			rb, okB := minRTTs[b.Name]
			if !okA || !okB {
				continue
			}
			if ra+rb < geo.MinRTTMs(a, b) {
				return AnycastVerdict{
					Server:  server,
					Anycast: true,
					Evidence: fmt.Sprintf("%s (%.1f ms) + %s (%.1f ms) < light bound %.1f ms",
						a.Name, ra, b.Name, rb, geo.MinRTTMs(a, b)),
				}
			}
		}
	}
	return AnycastVerdict{Server: server}
}

// MinRTTMatrix measures the per-vantage minimum RTT toward a server, the
// input DetectAnycast needs.
func (p *RTTProbe) MinRTTMatrix(app App, server geo.Location, rng *simrand.Source, reps int) map[string]float64 {
	out := map[string]float64{}
	for _, vp := range geo.VantagePoints() {
		s := p.Measure(app, server, vp, rng.Split(vp.Name), reps)
		out[vp.Name] = s.Min()
	}
	return out
}
