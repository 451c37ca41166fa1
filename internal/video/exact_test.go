package video

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"telepresence/internal/simrand"
)

// The digests below pin the integer kernels: the scene's table noise and
// the encoder's integer transform, quantiser and reconstruction. A change
// to those kernels must be bit-exact or move these digests, and with them
// every 2D-video golden row.

// TestSceneDigest pins Scene.Next output at the resolutions the VCA specs
// use, plus an odd size. 1024x768 is not a multiple of noisePerWord
// pixels, so its noise ends in a partial word.
func TestSceneDigest(t *testing.T) {
	cases := []struct {
		w, h, frames int
		want         string
	}{
		{640, 360, 8, "6bf664a5303214281d9110de1b0e80a602ce9743c816faffa1525615b33a75f1"},
		{1280, 720, 4, "ec4418e15ae0e97bde0fd0db4d72de00b43dd71fd2cef19d49be1547772d41b5"},
		{1024, 768, 4, "8eca6188299fdc735aeb8ab25992c5d67e5ec9032a4995ed6419fcd847c2898e"},
		{97, 55, 30, "18fe11c23fc9ffd945f9f2f6beff1507629034147534fbf960ca008e220d62d9"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
			s := NewScene(simrand.New(int64(c.w*c.h)), c.w, c.h, 30)
			h := sha256.New()
			for i := 0; i < c.frames; i++ {
				h.Write(s.Next().Pix)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("scene digest = %s, want %s", got, c.want)
			}
		})
	}
}

// TestEncodeDigest pins the encoder's bitstream, and so its skip flags and
// reconstruction rounding, over rate-controlled sequences with keyframes,
// skipped blocks and partial edge blocks.
func TestEncodeDigest(t *testing.T) {
	cases := []struct {
		w, h, frames int
		want         string
	}{
		{640, 360, 40, "efba2f3d096c61fa3dfd1e24fa3024d934cdda0c08064affe686315c1aaabcd8"},
		{97, 55, 40, "327a1d837f6ff75e5982b65fc1d495a78d579a12d9b88a1b60339d484bffffa2"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
			s := NewScene(simrand.New(3), c.w, c.h, 30)
			cfg := DefaultConfig(c.w, c.h, 1.2e6)
			cfg.GOP = 15
			enc, err := NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for i := 0; i < c.frames; i++ {
				ef, err := enc.Encode(s.Next())
				if err != nil {
					t.Fatal(err)
				}
				h.Write(ef.Data)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("bitstream digest = %s, want %s", got, c.want)
			}
		})
	}
}
