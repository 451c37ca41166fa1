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

// TestFillNormalMatchesNormal compares FillNormal with sequential Normal
// calls over 10^7 draws, in batches of varying length so batch boundaries
// fall everywhere relative to the generator's 607-word wrap and to
// rejected draws. Interleaved Intn calls check that both paths leave the
// stream in the same place.
func TestFillNormalMatchesNormal(t *testing.T) {
	a, b := New(123), New(123)
	buf := make([]float64, 1000)
	var n, tail int
	for n < 10_000_000 {
		batch := buf[:1+a.Intn(len(buf))]
		b.Intn(len(buf))
		a.FillNormal(batch, 3, 0.75)
		for k, got := range batch {
			want := b.Normal(3, 0.75)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("draw %d: FillNormal = %v, Normal = %v", n+k, got, want)
			}
			if math.Abs(got-3) > 0.75*zigRn {
				tail++
			}
		}
		n += len(batch)
	}
	if tail == 0 {
		t.Error("no draw reached the base-strip tail")
	}
	a.FillNormal(nil, 0, 1)
	if x, y := a.Int63(), b.Int63(); x != y {
		t.Errorf("streams out of step after the batches: %d vs %d", x, y)
	}
}

func BenchmarkFillNormal(b *testing.B) {
	s := New(1)
	var buf [512]float64 // the batch Scene.Next draws
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FillNormal(buf[:], 0, 1.2)
	}
}
