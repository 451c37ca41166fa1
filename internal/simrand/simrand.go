// Package simrand provides seeded random-variate generators used across the
// simulation: normal/lognormal draws for network jitter and camera noise,
// Ornstein-Uhlenbeck processes for natural head/hand motion, and helpers
// for deriving independent sub-streams from one experiment seed.
//
// The uniform stream comes from simrand's own port of math/rand's
// generator (rng.go), so every seed yields exactly the stream
// rand.NewSource would; the simulator's golden outputs depend on that.
// Owning the concrete generator lets the hot normal samplers (ziggurat.go)
// skip the rand.Source interface call per draw, and lets New seed a stream
// without building its 607-word register: the first draws are computed
// from the seed alone, and the register is built by jump-ahead, a third of
// what stepping math/rand's seeding LCG costs, only once a stream draws
// past that window (rng.go).
package simrand

import (
	"math"
	"math/rand"
)

// Source is a deterministic random stream with the distribution helpers
// the simulation needs. A *rand.Rand over the generator provides the
// uniform helpers; the generator itself is kept alongside so the hot normal
// samplers (ziggurat.go) draw from the same stream without the wrapper.
type Source struct {
	r   *rand.Rand         // over windowSource, then over g once it is built
	g   *rngSource         // the register; nil until draw rngWindow+1
	pow *[rngLen][3]uint32 // seedPowers, fetched once per stream
	x0  uint32             // the seeding LCG's start state
	n   int32              // window draws served
}

// New returns a source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	(*windowSource)(s).Seed(seed)
	return s
}

// Split derives a sub-stream identified by label. It draws one Int63 from
// s, so each Split advances s by one draw: the same label split from s in
// the same state yields the same stream, but two Splits of one label from
// one parent yield different streams, and a caller's Splits depend on
// their order. Different labels yield decorrelated streams. This lets one
// experiment seed fan out to many subsystems without shared-stream
// coupling; use ChildSeed where the order must not matter.
func (s *Source) Split(label string) *Source {
	return New(splitSeed(label, s.r.Int63()))
}

// splitSeed is the seed Split derives from label and the parent's next
// Int63.
func splitSeed(label string, word int64) int64 {
	return int64(splitmix64(fnv1a(label) ^ uint64(word)))
}

// fnv1a returns label's 64-bit FNV-1a hash.
func fnv1a(label string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ChildSeed derives an independent child seed from a parent seed and a
// label, as a pure function: unlike Source.Split it consumes no stream
// state, so callers may derive children in any order (or concurrently) and
// always obtain the same seeds. This is what the fleet scheduler uses to
// shard an experiment's repetitions across workers deterministically.
func ChildSeed(seed int64, label string) int64 {
	return int64(splitmix64(fnv1a(label) ^ splitmix64(uint64(seed))))
}

// Child returns a source seeded with ChildSeed(seed, label).
func Child(seed int64, label string) *Source {
	return New(ChildSeed(seed, label))
}

// Float64 returns a uniform draw in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform int in [0,n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Uniform returns a uniform draw in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*s.r.Float64() }

// Normal returns a normal draw with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.normFloat64()
}

// LogNormal returns a lognormal draw parameterized by the mean and stddev of
// the underlying normal. Used for heavy-ish-tailed network jitter.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exponential returns an exponential draw with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// OU is a discretized Ornstein-Uhlenbeck (mean-reverting) process. It is the
// canonical model for "natural" continuous motion: head pose drift, gaze
// wander, and conversational hand movement all use it.
type OU struct {
	// Mean is the long-run value the process reverts to.
	Mean float64
	// Theta is the mean-reversion rate (1/s). Larger = snappier return.
	Theta float64
	// Sigma is the diffusion (noise) magnitude.
	Sigma float64

	x   float64
	src *Source

	// Cached discretization coefficients: callers step with a fixed dt
	// (one frame time), so the Exp/Sqrt terms are invariant between
	// parameter changes and need not be recomputed every step.
	cacheDt, cacheTheta, cacheSigma float64
	decay, diff                     float64
}

// NewOU returns an OU process started at its mean.
func NewOU(src *Source, mean, theta, sigma float64) *OU {
	return &OU{Mean: mean, Theta: theta, Sigma: sigma, x: mean, src: src}
}

// Step advances the process by dt seconds and returns the new value, using
// the exact discretization of the OU SDE (valid for any dt).
func (o *OU) Step(dt float64) float64 {
	if dt <= 0 {
		return o.x
	}
	if dt != o.cacheDt || o.Theta != o.cacheTheta || o.Sigma != o.cacheSigma {
		o.decay = math.Exp(-o.Theta * dt)
		var v float64
		if o.Theta > 0 {
			v = o.Sigma * o.Sigma / (2 * o.Theta) * (1 - o.decay*o.decay)
		} else {
			v = o.Sigma * o.Sigma * dt
		}
		o.diff = math.Sqrt(v)
		o.cacheDt, o.cacheTheta, o.cacheSigma = dt, o.Theta, o.Sigma
	}
	o.x = o.Mean + (o.x-o.Mean)*o.decay + o.diff*o.src.normFloat64()
	return o.x
}

// Value returns the current process value without advancing it.
func (o *OU) Value() float64 { return o.x }

// Reset moves the process to x.
func (o *OU) Reset(x float64) { o.x = x }
