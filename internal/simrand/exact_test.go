package simrand

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
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

// TestJumpAheadSeedMatchesMathRand checks the jump-ahead register against
// rand.NewSource over 2,000 random seeds and edge seeds that exercise every
// branch of Seed's reduction: zero (replaced by a fixed seed), negative, at
// and beyond 2^31, and the int64 extremes. 700 words per seed run past the
// 607-word register, so the feedback wrap is covered.
func TestJumpAheadSeedMatchesMathRand(t *testing.T) {
	pick := rand.New(rand.NewSource(2024))
	seeds := []int64{0, 1, -1, int32max, int32max + 1, -int32max, -int32max - 1,
		1 << 31, -(1 << 31), math.MaxInt64, math.MinInt64}
	for i := 0; i < 2000; i++ {
		switch i % 4 {
		case 0:
			seeds = append(seeds, int64(pick.Uint64()))
		case 1:
			seeds = append(seeds, pick.Int63n(int32max))
		case 2: // near a multiple of the modulus, either side
			seeds = append(seeds, pick.Int63n(1<<32)*int32max+pick.Int63n(5)-2)
		default:
			seeds = append(seeds, -pick.Int63())
		}
	}
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		g := newRngSource(seed)
		for i := 0; i < 700; i++ {
			if a, b := g.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d word %d: %d, want %d", seed, i, a, b)
			}
		}
	}
}

// TestConcurrentSeedingMatchesSequential seeds streams from several
// goroutines at once, New and Split alike, and checks each against the
// same stream seeded afterwards on one goroutine. Run alone, its first
// iteration is also the first use of the shared power table (CI runs it
// ten times under -race).
func TestConcurrentSeedingMatchesSequential(t *testing.T) {
	const workers, seedsPer, draws = 8, 16, 64
	streams := func(w int) [][]int64 {
		var out [][]int64
		for k := 0; k < seedsPer; k++ {
			parent := New(ChildSeed(int64(w), fmt.Sprint(k)))
			for _, s := range []*Source{parent.Split("a"), parent.Split("a"), parent} {
				words := make([]int64, draws)
				for i := range words {
					words[i] = s.Int63()
				}
				out = append(out, words)
			}
		}
		return out
	}
	got := make([][][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = streams(w)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if want := streams(w); !reflect.DeepEqual(got[w], want) {
			t.Fatalf("worker %d: concurrent streams differ from sequential ones", w)
		}
	}
}

// TestSplitAdvancesParent pins Split's contract: it consumes exactly one
// draw of its parent, so the same label from the same parent state gives
// the same stream and a second Split of that label from one parent gives
// another.
func TestSplitAdvancesParent(t *testing.T) {
	p := New(7)
	a, b := p.Split("x").Int63(), p.Split("x").Int63()
	if a == b {
		t.Fatal("two Splits of one label from one parent gave the same stream")
	}
	if New(7).Split("x").Int63() != a {
		t.Fatal("Split of one label from one parent state is not reproducible")
	}
	q := New(7)
	q.Int63()
	if q.Split("x").Int63() != b {
		t.Fatal("the second Split does not see the parent one draw on")
	}
	ref := New(7)
	ref.Int63()
	ref.Int63()
	if p.Int63() != ref.Int63() {
		t.Fatal("two Splits did not advance the parent by two draws")
	}
}

var sinkSource *Source

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSource = New(int64(i))
	}
}

func BenchmarkSplit(b *testing.B) {
	b.ReportAllocs()
	parent := New(1)
	for i := 0; i < b.N; i++ {
		sinkSource = parent.Split("CA-FSeattle")
	}
}
