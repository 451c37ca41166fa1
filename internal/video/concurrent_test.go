package video

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"testing"

	"telepresence/internal/simrand"
)

// sceneDigests drives s alone for n frames and returns each frame's digest,
// counting how many of the following frames went to a renderer. It yields
// after each frame, where a sender would encode, so that even with one P a
// renderer runs and is idle for the next hand-off.
func sceneDigests(s *Scene, n int) (digests [][sha256.Size]byte, pooled int) {
	for i := 0; i < n; i++ {
		digests = append(digests, sha256.Sum256(s.Next().Pix))
		if s.ahead {
			pooled++
		}
		runtime.Gosched()
	}
	return digests, pooled
}

// TestScenesConcurrentMatchSequential drives more scenes than there are
// renderers from several goroutines at once, so frames are rendered both by
// the renderer pool and inline, and checks every frame against the same
// scene driven alone. Run it under -race: a renderer and its scene's caller
// share the scene's state, ordered only by the pool and done channels.
func TestScenesConcurrentMatchSequential(t *testing.T) {
	const frames = 24
	sizes := [][2]int{{64, 48}, {97, 55}, {40, 24}}
	drivers := 2*runtime.GOMAXPROCS(0) + 1
	perDriver := 3
	newScene := func(k int) *Scene {
		sz := sizes[k%len(sizes)]
		return NewScene(simrand.New(int64(100+k)), sz[0], sz[1], 30)
	}
	n := drivers * perDriver
	want := make([][][sha256.Size]byte, n)
	pooled := 0
	for k := range want {
		var p int
		want[k], p = sceneDigests(newScene(k), frames)
		pooled += p
	}

	got := make([][][sha256.Size]byte, n)
	inline := make([]int, drivers)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			scenes := make([]*Scene, perDriver)
			for j := range scenes {
				scenes[j] = newScene(d*perDriver + j)
			}
			// Interleave the driver's scenes, so a scene's next frame may
			// still be rendering when the driver comes back to it.
			for i := 0; i < frames; i++ {
				for j, s := range scenes {
					k := d*perDriver + j
					got[k] = append(got[k], sha256.Sum256(s.Next().Pix))
					if !s.ahead {
						inline[d]++
					}
				}
			}
		}(d)
	}
	wg.Wait()
	for k := range want {
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("scene %d frame %d differs from the scene driven alone", k, i)
			}
		}
	}
	inlineTotal := 0
	for _, c := range inline {
		inlineTotal += c
	}
	t.Logf("%d frames rendered ahead while driven alone; %d of %d rendered inline when driven concurrently",
		pooled, inlineTotal, n*frames)
	if pooled == 0 {
		t.Error("no frame was rendered by the renderer pool")
	}
	if inlineTotal == 0 {
		t.Error("no frame was rendered inline")
	}
}
