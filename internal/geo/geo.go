// Package geo models the geography underlying the paper's server-
// infrastructure measurements (§4.1, Figure 4): US vantage-point and server
// locations, great-circle distances, and a fiber-propagation RTT model with
// route inflation, access-network overhead, and per-provider processing
// delay.
package geo

import (
	"fmt"
	"math"

	"telepresence/internal/simrand"
)

// Location is a named geographic point.
type Location struct {
	Name string
	// Lat and Lon are in degrees.
	Lat, Lon float64
}

// String returns the location name.
func (l Location) String() string { return l.Name }

// Well-known locations used by the paper's experiments. Client vantage
// points: three each in the Western, Middle, and Eastern US (§4.1). Server
// locations: the states where the paper geolocated each provider's servers.
var (
	// Western US vantage points.
	Seattle      = Location{"Seattle, WA", 47.61, -122.33}
	SanFrancisco = Location{"San Francisco, CA", 37.77, -122.42}
	LosAngeles   = Location{"Los Angeles, CA", 34.05, -118.24}
	// Middle US vantage points.
	Denver  = Location{"Denver, CO", 39.74, -104.99}
	Chicago = Location{"Chicago, IL", 41.88, -87.63}
	Austin  = Location{"Austin, TX", 30.27, -97.74}
	// Eastern US vantage points.
	NewYork = Location{"New York, NY", 40.71, -74.01}
	Ashburn = Location{"Ashburn, VA", 39.04, -77.49}
	Miami   = Location{"Miami, FL", 25.76, -80.19}
	// Server locations (state abbreviations follow Figure 4's legend).
	ServerCA = Location{"CA", 37.37, -121.92} // San Jose area
	ServerTX = Location{"TX", 32.78, -96.80}  // Dallas area
	ServerIL = Location{"IL", 41.88, -87.63}  // Chicago area
	ServerVA = Location{"VA", 39.04, -77.49}  // Ashburn area
	ServerNJ = Location{"NJ", 40.22, -74.74}  // Trenton area
	ServerWA = Location{"WA", 47.61, -122.33} // Seattle area
	// Non-US reference points for the cross-continent discussion
	// (Implications 1: Europe-Asia one-way delay can exceed 100 ms).
	London    = Location{"London", 51.51, -0.13}
	Frankfurt = Location{"Frankfurt", 50.11, 8.68}
	Singapore = Location{"Singapore", 1.35, 103.82}
)

// VantagePoints returns the paper's nine US client locations, west to east.
func VantagePoints() []Location {
	return []Location{
		Seattle, SanFrancisco, LosAngeles,
		Denver, Chicago, Austin,
		NewYork, Ashburn, Miami,
	}
}

const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle (haversine) distance between a and b
// in kilometers.
func DistanceKm(a, b Location) float64 {
	la1, lo1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	la2, lo2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	dla, dlo := la2-la1, lo2-lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// SpeedOfLightFiberKmPerMs is the propagation speed of light in optical
// fiber, roughly two thirds of c.
const SpeedOfLightFiberKmPerMs = 200.0

// MinRTTMs returns the physically minimal round-trip time between two
// points: straight-line fiber at 2/3 c with zero route inflation. Used by
// the anycast detector (no unicast server can beat this bound).
func MinRTTMs(a, b Location) float64 {
	return 2 * DistanceKm(a, b) / SpeedOfLightFiberKmPerMs
}

// PathModel converts geography into round-trip times. Parameters reflect
// well-known measurement findings: Internet routes are 1.5-2.1x longer than
// geodesics, last-mile/WiFi access adds a few milliseconds, and servers add
// processing delay.
type PathModel struct {
	// Inflation multiplies the geodesic propagation delay (typical 1.5-2.1).
	Inflation float64
	// AccessMs is the fixed access-network (WiFi AP + last mile) RTT cost.
	AccessMs float64
	// ServerProcMs is the server-side processing added to each probe.
	ServerProcMs float64
	// JitterMu and JitterSigma parameterize lognormal queueing jitter (ms).
	JitterMu, JitterSigma float64
}

// DefaultPathModel returns parameters producing RTTs consistent with the
// paper's Figure 4: coast-to-coast >80 ms, same-metro <15 ms.
func DefaultPathModel() PathModel {
	return PathModel{
		Inflation:    1.8,
		AccessMs:     6.0,
		ServerProcMs: 1.5,
		JitterMu:     0.4, // exp(0.4)~1.5ms median jitter
		JitterSigma:  0.6,
	}
}

// BaseRTTMs returns the deterministic part of the RTT between a and b.
func (m PathModel) BaseRTTMs(a, b Location) float64 {
	prop := 2 * DistanceKm(a, b) / SpeedOfLightFiberKmPerMs * m.Inflation
	return prop + m.AccessMs + m.ServerProcMs
}

// JitterMs draws one path's queueing jitter. A jittered RTT observation
// between a and b is BaseRTTMs(a, b) + JitterMs(rng); a caller probing one
// pair many times computes the base once.
func (m PathModel) JitterMs(rng *simrand.Source) float64 {
	return rng.LogNormal(m.JitterMu, m.JitterSigma)
}

// Validate reports an error if the model parameters are physically
// meaningless.
func (m PathModel) Validate() error {
	if m.Inflation < 1 {
		return fmt.Errorf("geo: inflation %.2f < 1 (routes cannot be shorter than geodesics)", m.Inflation)
	}
	if m.AccessMs < 0 || m.ServerProcMs < 0 {
		return fmt.Errorf("geo: negative fixed delay")
	}
	return nil
}

// Nearest returns the location in candidates closest to from, along with its
// distance. It panics on an empty candidate list (caller bug).
func Nearest(from Location, candidates []Location) (Location, float64) {
	if len(candidates) == 0 {
		panic("geo: Nearest with no candidates")
	}
	best := candidates[0]
	bestD := DistanceKm(from, best)
	for _, c := range candidates[1:] {
		if d := DistanceKm(from, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}
