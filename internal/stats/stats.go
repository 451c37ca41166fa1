// Package stats implements the descriptive statistics the paper reports:
// means with standard deviations, percentiles, CDFs (Figure 4), and the
// five-number box summaries (5th/25th/median/75th/95th, Figure 5).
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Sample is an accumulating collection of float64 observations. The zero
// value is an empty sample ready to use. Quantile queries work on a
// separate sorted buffer, so Values() keeps insertion order no matter what
// is asked of the sample.
type Sample struct {
	xs      []float64
	sortBuf []float64
	sorted  bool
}

// NewSample returns a sample pre-populated with xs (copied).
func NewSample(xs ...float64) *Sample {
	s := &Sample{xs: append([]float64(nil), xs...)}
	return s
}

// NewSampleCap returns an empty sample with capacity for n observations, so
// callers that know their rep/bin counts avoid append regrowth.
func NewSampleCap(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Add appends observations to the sample.
func (s *Sample) Add(xs ...float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the raw observations in insertion order (not a copy;
// callers must not mutate).
func (s *Sample) Values() []float64 { return s.xs }

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Std returns the population standard deviation, or NaN for an empty sample.
func (s *Sample) Std() float64 {
	n := len(s.xs)
	if n == 0 {
		return math.NaN()
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.sort()[0]
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sorted := s.sort()
	return sorted[len(sorted)-1]
}

// sort returns the observations in ascending order without touching the
// insertion-ordered backing array: Values() documents raw observations, so
// quantile queries sort a separate buffer.
func (s *Sample) sort() []float64 {
	if !s.sorted {
		s.sortBuf = append(s.sortBuf[:0], s.xs...)
		sort.Float64s(s.sortBuf)
		s.sorted = true
	}
	return s.sortBuf
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics, or NaN for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	sorted := s.sort()
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// FractionBelow returns the empirical CDF evaluated at x: the fraction of
// observations strictly less than or equal to x.
func (s *Sample) FractionBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sorted := s.sort()
	i := sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(sorted))
}

// Box is the five-number summary plus mean used by the paper's whisker
// plots: 5th, 25th, median, 75th and 95th percentiles.
type Box struct {
	P5, P25, Median, P75, P95, Mean float64
	N                               int
}

// meanSorted is the mean summed in ascending value order: deterministic in
// floating point regardless of insertion order, and identical to what the
// historical in-place sort produced for quantile-then-mean call sequences.
func (s *Sample) meanSorted() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.sort() {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// BoxStats computes the Box summary of the sample. Its Mean is summed over
// the sorted observations, so the box is a pure function of the observed
// value multiset.
func (s *Sample) BoxStats() Box {
	return Box{
		P5:     s.Percentile(5),
		P25:    s.Percentile(25),
		Median: s.Median(),
		P75:    s.Percentile(75),
		P95:    s.Percentile(95),
		Mean:   s.meanSorted(),
		N:      s.N(),
	}
}

// String renders the box summary in a compact single line.
func (b Box) String() string {
	return fmt.Sprintf("n=%d p5=%.3f p25=%.3f med=%.3f p75=%.3f p95=%.3f mean=%.3f",
		b.N, b.P5, b.P25, b.Median, b.P75, b.P95, b.Mean)
}

// MeanStd formats the sample as "mean±std" with the given decimal places,
// matching how the paper reports e.g. 108.4±16.7 Mbps.
func (s *Sample) MeanStd(decimals int) string {
	return fmt.Sprintf("%.*f±%.*f", decimals, s.Mean(), decimals, s.Std())
}

// summary is the JSON projection of a Sample: the descriptive statistics
// the paper reports, rather than the raw observations, so encoded rows stay
// compact and stable.
type summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	P95    float64 `json:"p95"`
	Max    float64 `json:"max"`
}

// MarshalJSON encodes the sample as its descriptive summary. Empty samples
// encode as {"n":0} (NaN is not representable in JSON).
func (s *Sample) MarshalJSON() ([]byte, error) {
	if s == nil || len(s.xs) == 0 {
		return []byte(`{"n":0}`), nil
	}
	return json.Marshal(summary{
		N: s.N(), Mean: s.Mean(), Std: s.Std(),
		Min: s.Min(), P25: s.Percentile(25), Median: s.Median(),
		P75: s.Percentile(75), P95: s.Percentile(95), Max: s.Max(),
	})
}

// CDFPoint is one (value, cumulative fraction) point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the full empirical CDF as a step function sampled at each
// distinct observation.
func (s *Sample) CDF() []CDFPoint {
	if len(s.xs) == 0 {
		return nil
	}
	sorted := s.sort()
	n := float64(len(sorted))
	var out []CDFPoint
	for i := 0; i < len(sorted); i++ {
		// Collapse runs of equal values to the last index.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		out = append(out, CDFPoint{Value: sorted[i], Fraction: float64(i+1) / n})
	}
	return out
}

// Histogram bins the observations into nbins equal-width bins over
// [min,max] and returns the bin counts. Non-finite observations (NaN, ±Inf)
// are excluded: they have no bounded place on the real line, and converting
// their bin index to int is undefined behavior that used to misbin them —
// so they contribute to no bin and do not distort the [min,max] range. A
// sample with no finite observation yields (nil, nil) like an empty one.
func (s *Sample) Histogram(nbins int) (edges []float64, counts []int) {
	if len(s.xs) == 0 || nbins <= 0 {
		return nil, nil
	}
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	// Range over the finite observations only.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range s.xs {
		if !finite(x) {
			continue
		}
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if lo > hi { // no finite observation
		return nil, nil
	}
	if hi == lo {
		hi = lo + 1
	}
	w := (hi - lo) / float64(nbins)
	edges = make([]float64, nbins+1)
	for i := range edges {
		edges[i] = lo + w*float64(i)
	}
	counts = make([]int, nbins)
	for _, x := range s.xs {
		if !finite(x) {
			continue
		}
		i := int((x - lo) / w)
		if i >= nbins {
			i = nbins - 1
		}
		if i < 0 {
			i = 0
		}
		counts[i]++
	}
	return edges, counts
}
