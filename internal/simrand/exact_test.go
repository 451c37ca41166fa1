package simrand

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// newRngSource returns a stream seeded as rand.NewSource(seed), drawn as a
// Source draws it.
func newRngSource(seed int64) *windowSource { return (*windowSource)(New(seed)) }

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
// same stream seeded afterwards on one goroutine. Each stream draws past
// rngWindow and past the register's length, so the window draws and the
// register built after them both read the shared power table. Run alone,
// its first iteration is also the table's first use (CI runs it ten times
// under -race).
func TestConcurrentSeedingMatchesSequential(t *testing.T) {
	const workers, seedsPer, draws = 8, 16, 700
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

// countingSource counts the words drawn from a reference stream.
type countingSource struct {
	rand.Source64
	n int
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.Source64.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.Source64.Uint64()
}

// lazyStops are the draw counts TestLazySourceMatchesMathRand stops at: no
// draw, the window's first and last draws and the register's first, the
// last draw whose tap word is still a seeded word and the first that is
// not, and past the register's length.
var lazyStops = []int{0, 1, rngWindow - 1, rngWindow, rngWindow + 1, rngTap, rngTap + 1, rngLen, 700}

// TestLazySourceMatchesMathRand checks Source against
// rand.New(rand.NewSource(seed)) across the lazy window: for each stop in
// lazyStops, a stream draws exactly that many words through a mix of
// helpers, then Splits, then both the parent and the child run on through
// and past the window, compared with their references value by value. It
// also checks rngSource.Seed, which a Source never calls.
func TestLazySourceMatchesMathRand(t *testing.T) {
	pick := rand.New(rand.NewSource(29))
	seeds := []int64{0, 1, -1, int32max, int32max + 1, math.MaxInt64, math.MinInt64}
	for len(seeds) < 300 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		// The register a built stream draws from reseeds eagerly, as
		// rand.Source requires.
		var reg rngSource
		reg.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < rngLen+1; i++ {
			if a, b := reg.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d: rngSource.Seed word %d = %d, want %d", seed, i, a, b)
			}
		}
		for _, stop := range lazyStops {
			got := New(seed)
			ref := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
			want := rand.New(ref)
			at := fmt.Sprintf("seed %d stop %d", seed, stop)
			// A mixed op may draw a few words; within 8 of the stop, draw
			// single words so the stream lands on it exactly.
			for ref.n < stop-8 {
				compareOp(t, at, pick.Intn(8), got, want, ref.n)
			}
			for ref.n < stop {
				compareOp(t, at, 0, got, want, ref.n)
			}
			if ref.n != stop {
				t.Fatalf("%s: drew %d words", at, ref.n)
			}
			if hasReg := got.g != nil; hasReg != (stop > rngWindow) {
				t.Fatalf("%s: register built = %v", at, hasReg)
			}
			child := got.Split("edge")
			childSeed := splitSeed("edge", want.Int63())
			cref := &countingSource{Source64: rand.NewSource(childSeed).(rand.Source64)}
			wantChild := rand.New(cref)
			for cref.n < 2*rngWindow {
				compareOp(t, at+" child", pick.Intn(8), child, wantChild, cref.n)
			}
			for end := ref.n + rngTap + 1; ref.n < end; {
				compareOp(t, at, pick.Intn(8), got, want, ref.n)
			}
		}
	}
}

// compareOp draws one value through helper op from got and the same from
// the reference want, and fails the test if they differ.
func compareOp(t *testing.T, at string, op int, got *Source, want *rand.Rand, n int) {
	t.Helper()
	var a, b any
	switch op {
	case 0:
		a, b = got.Int63(), want.Int63()
	case 1:
		a, b = got.r.Uint64(), want.Uint64()
	case 2:
		a, b = got.Intn(1000), want.Intn(1000)
	case 3:
		a, b = got.Float64(), want.Float64()
	case 4:
		a, b = got.Exponential(1), want.ExpFloat64()
	case 5:
		a, b = got.Normal(0, 1), want.NormFloat64()
	case 6:
		a, b = got.LogNormal(1, 0.5), math.Exp(1+0.5*want.NormFloat64())
	default:
		a, b = got.Bernoulli(0.3), want.Float64() < 0.3
	}
	if a != b {
		t.Fatalf("%s: op %d after %d words = %v, want %v", at, op, n, a, b)
	}
}

// TestShortStreamAllocatesNoRegister pins what a Figure 4-shaped stream
// costs: New plus ten LogNormal draws stays inside the window, builds no
// register and allocates at most 256 B.
func TestShortStreamAllocatesNoRegister(t *testing.T) {
	const streams = 1000
	var sum float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < streams; i++ {
		s := New(int64(i))
		for k := 0; k < 10; k++ {
			sum += s.LogNormal(0, 1)
		}
		if s.g != nil {
			t.Fatalf("stream %d built its register within ten draws", i)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / streams; per > 256 {
		t.Fatalf("a short stream allocates %d B, want at most 256", per)
	}
	sinkFloat = sum
}

var (
	sinkSource *Source
	sinkFloat  float64
)

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

// BenchmarkShortStream times a Figure 4-shaped stream: New, then ten
// LogNormal draws.
func BenchmarkShortStream(b *testing.B) {
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		s := New(int64(i))
		for k := 0; k < 10; k++ {
			sum += s.LogNormal(0, 1)
		}
	}
	sinkFloat = sum
}
