package video

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"testing"

	"telepresence/internal/simrand"
)

// codedFrame is what a test pins of one EncodedFrame.
type codedFrame struct {
	sum    [sha256.Size]byte
	key    bool
	qscale float64
}

func pin(ef *EncodedFrame) codedFrame {
	return codedFrame{sha256.Sum256(ef.Data), ef.Key, ef.QScale}
}

// retarget returns the rate target a caller sets before frame i of source
// k, or 0 for none: a few changes of the target, some of which land while
// the frame is being coded ahead.
func retarget(k, i int) float64 {
	if (i+k)%5 != 2 {
		return 0
	}
	return []float64{5e4, 3e5, 1.2e5}[(i+k)%3]
}

// TestSourcesConcurrentMatchSequential drives more sources than there are
// coders from several goroutines at once, so frames are coded both by the
// coder pool and inline, and pins every coded frame (bytes, key flag and
// quantizer) to Encode(scene.Next()) called inline with the same
// SetTargetBps schedule. Every other source is told half the frames it is
// asked for, so past that count every frame is coded inline whatever the
// pool's load. Run it under -race: a coder and its source's
// caller share the scene and encoder, ordered only by the pool and done
// channels, and the caller retargets while a frame is coded ahead.
func TestSourcesConcurrentMatchSequential(t *testing.T) {
	const frames = 24
	sizes := [][2]int{{64, 48}, {97, 55}, {40, 24}}
	drivers := 2*runtime.GOMAXPROCS(0) + 1
	perDriver := 3
	n := drivers * perDriver
	parts := func(k int) (*Scene, *Encoder) {
		w, h := sizes[k%len(sizes)][0], sizes[k%len(sizes)][1]
		cfg := DefaultConfig(w, h, 2e5)
		cfg.GOP = 7 // keyframes and delta frames both inside the run
		return NewScene(simrand.New(int64(100+k)), w, h, 30), mustEncoder(t, cfg)
	}

	want := make([][]codedFrame, n)
	for k := range want {
		scene, enc := parts(k)
		for i := 0; i < frames; i++ {
			if bps := retarget(k, i); bps > 0 {
				enc.SetTargetBps(bps)
			}
			ef, err := enc.Encode(scene.Next())
			if err != nil {
				t.Fatal(err)
			}
			want[k] = append(want[k], pin(ef))
		}
	}

	srcs := make([]*Source, n)
	for k := range srcs {
		scene, enc := parts(k)
		src, err := NewSource(scene, enc, frames/(1+k%2))
		if err != nil {
			t.Fatal(err)
		}
		srcs[k] = src
	}
	got := make([][]codedFrame, n)
	pooled := make([]int, drivers)
	inline := make([]int, drivers)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int, srcs []*Source) {
			defer wg.Done()
			// Interleave the driver's sources, so a source's next frame may
			// still be coding when the driver comes back to it.
			for i := 0; i < frames; i++ {
				for j, src := range srcs {
					k := d*perDriver + j
					if bps := retarget(k, i); bps > 0 {
						src.SetTargetBps(bps)
					}
					if i > 0 {
						if src.ahead {
							pooled[d]++
						} else {
							inline[d]++
						}
					}
					got[k] = append(got[k], pin(src.Next()))
					// Yield where a sender would packetize, so that even
					// with one P a coder runs.
					runtime.Gosched()
				}
			}
			for j, src := range srcs {
				if src.ahead {
					t.Errorf("source %d coded a frame past its last", d*perDriver+j)
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
				t.Fatalf("source %d frame %d = %+v, want %+v as coded inline", k, i, got[k][i], want[k][i])
			}
		}
	}
	var pooledTotal, inlineTotal int
	for d := range pooled {
		pooledTotal += pooled[d]
		inlineTotal += inline[d]
	}
	t.Logf("of %d frames after the first per source, %d were coded ahead by the pool and %d inline",
		n*(frames-1), pooledTotal, inlineTotal)
	if pooledTotal == 0 {
		t.Error("no frame was coded by the coder pool")
	}
	if inlineTotal == 0 {
		t.Error("no frame after a source's first was coded inline")
	}
}
