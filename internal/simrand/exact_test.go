package simrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestGeneratorMatchesMathRand checks the ported generator against
// rand.NewSource, both raw and through the *rand.Rand helpers, for seeds
// that exercise every branch of the seeding arithmetic: zero (replaced by a
// fixed seed), negative, at and beyond 2^31, and typical values.
func TestGeneratorMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, 42, -1, -7, int32max, int32max + 1, 1 << 31, 1<<40 + 3,
		-(1 << 40), math.MaxInt64, math.MinInt64, ChildSeed(7, "noise")}
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		g := newRngSource(seed)
		for i := 0; i < 5000; i++ {
			if i%2 == 0 {
				if a, b := g.Int63(), ref.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, a, b)
				}
			} else if a, b := g.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, a, b)
			}
		}
		got, want := rand.New(newRngSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			if a, b := got.Intn(1000+i), want.Intn(1000+i); a != b {
				t.Fatalf("seed %d draw %d: Intn = %d, want %d", seed, i, a, b)
			}
			if a, b := got.Float64(), want.Float64(); a != b {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, a, b)
			}
			if a, b := got.ExpFloat64(), want.ExpFloat64(); a != b {
				t.Fatalf("seed %d draw %d: ExpFloat64 = %v, want %v", seed, i, a, b)
			}
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, a, b)
			}
		}
	}
}
