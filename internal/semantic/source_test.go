package semantic

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"testing"

	"telepresence/internal/keypoints"
	"telepresence/internal/simrand"
)

func sourceParts(k int) (*keypoints.Generator, *Encoder) {
	mode := []Mode{ModeFloat32, ModeQuantized}[k%2]
	enc := NewEncoder(mode)
	enc.KeyframeInterval = 50 // keyframes and delta frames both inside the run
	return keypoints.NewGenerator(simrand.New(int64(300+k)), keypoints.DefaultMotionConfig()), enc
}

// TestSourcesConcurrentMatchSequential drives more sources than there are
// coders from several goroutines at once, so batches are coded both by the
// idle pool and inline, and pins every wire frame to Encode(gen.Next())
// called inline. Sources alternate between the two modes, and every other
// pair of sources is told half the frames it is asked for, so past that
// count every frame is coded inline whatever the pool's load. Run it under
// -race: a coder and its source's caller share the generator, encoder and
// batch buffers, ordered only by the pool and done channels.
func TestSourcesConcurrentMatchSequential(t *testing.T) {
	const frames = 3*batchFrames + 17 // a partial last batch
	drivers := 2*runtime.GOMAXPROCS(0) + 1
	perDriver := 4
	n := drivers * perDriver
	told := func(k int) int { return frames / (1 + k/2%2) }

	want := make([][][sha256.Size]byte, n)
	for k := range want {
		gen, enc := sourceParts(k)
		for i := 0; i < frames; i++ {
			f := gen.Next()
			want[k] = append(want[k], sha256.Sum256(enc.Encode(&f)))
		}
	}

	srcs := make([]*Source, n)
	for k := range srcs {
		gen, enc := sourceParts(k)
		srcs[k] = NewSource(gen, enc, told(k))
	}
	got := make([][][sha256.Size]byte, n)
	pooled := make([]int, drivers)
	inline := make([]int, drivers)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int, srcs []*Source) {
			defer wg.Done()
			// Interleave the driver's sources, so a source's next batch may
			// still be coding when the driver comes back to it.
			for i := 0; i < frames; i++ {
				for j, src := range srcs {
					k := d*perDriver + j
					if i > 0 && src.pos == len(src.cur.ends) {
						if src.ahead {
							pooled[d]++
						} else {
							inline[d]++
						}
					}
					got[k] = append(got[k], sha256.Sum256(src.Next()))
					// Yield where a sender would send, so that even with
					// one P a coder runs.
					runtime.Gosched()
				}
			}
			for j, src := range srcs {
				if src.ahead || src.todo != 0 {
					t.Errorf("source %d coded a batch past its last frame", d*perDriver+j)
				}
			}
		}(d, srcs[d*perDriver:(d+1)*perDriver])
	}
	wg.Wait()
	for k := range want {
		if len(got[k]) != len(want[k]) {
			t.Fatalf("source %d returned %d frames, want %d", k, len(got[k]), len(want[k]))
		}
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("source %d (told %d) frame %d differs from the frame coded inline", k, told(k), i)
			}
		}
	}
	var pooledTotal, inlineTotal int
	for d := range pooled {
		pooledTotal += pooled[d]
		inlineTotal += inline[d]
	}
	t.Logf("of the batches after each source's first, %d were coded ahead by the pool and %d inline",
		pooledTotal, inlineTotal)
	if pooledTotal == 0 {
		t.Error("no batch was coded by the idle pool")
	}
	if inlineTotal == 0 {
		t.Error("no batch after a source's first was coded inline")
	}
}

// TestSourceSkipCodesInline pins a thinning sender's source: told 0
// frames, it codes each frame at its Next and Skip advances only the
// generator, so its frames are Encode(gen.Next()) of the frames it did not
// skip. Skip on a source holding coded frames panics.
func TestSourceSkipCodesInline(t *testing.T) {
	for _, mode := range []Mode{ModeFloat32, ModeQuantized} {
		gen := keypoints.NewGenerator(simrand.New(9), keypoints.DefaultMotionConfig())
		enc := NewEncoder(mode)
		src := NewSource(keypoints.NewGenerator(simrand.New(9), keypoints.DefaultMotionConfig()), NewEncoder(mode), 0)
		for i := 0; i < 200; i++ {
			f := gen.Next()
			if i%3 == 1 {
				src.Skip()
				continue
			}
			if sha256.Sum256(src.Next()) != sha256.Sum256(enc.Encode(&f)) {
				t.Fatalf("%v: frame %d differs from the frame coded inline", mode, i)
			}
		}
	}

	src := NewSource(keypoints.NewGenerator(simrand.New(9), keypoints.DefaultMotionConfig()), NewEncoder(ModeFloat32), 10)
	src.Next()
	defer func() {
		if recover() == nil {
			t.Error("Skip on a source that codes ahead did not panic")
		}
	}()
	src.Skip()
}

// TestSourceSteadyStateAllocs pins the spatial capture path to the 2D
// one's contract (video.TestSteadyStateAllocs): once a source's two batch
// buffers have grown, Next allocates nothing, whichever goroutine codes the
// batch.
func TestSourceSteadyStateAllocs(t *testing.T) {
	for _, mode := range []Mode{ModeFloat32, ModeQuantized} {
		gen, enc := sourceParts(int(mode))
		src := NewSource(gen, enc, 1<<20)
		for i := 0; i < 4*batchFrames; i++ { // both batch buffers grown
			src.Next()
		}
		if a := testing.AllocsPerRun(3*batchFrames, func() { src.Next() }); a != 0 {
			t.Errorf("%v: Source.Next allocates %.2f times per frame, want 0", mode, a)
		}
	}
}
