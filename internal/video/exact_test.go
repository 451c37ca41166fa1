package video

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"telepresence/internal/simrand"
)

// The digests below were recorded before the noise, round/clamp and SAD
// kernels were rewritten for speed. Those kernels must stay bit-exact: a
// moved digest here means every 2D-video golden row moves too.

// TestSceneDigest pins Scene.Next output at the resolutions the VCA specs
// use, plus an odd size whose pixel count is not a multiple of any chunk.
func TestSceneDigest(t *testing.T) {
	cases := []struct {
		w, h, frames int
		want         string
	}{
		{640, 360, 8, "e22b61d0fb6ce76a9e3585b079c5c67488e4c1683a182090b7f62c873ed17842"},
		{1280, 720, 4, "9ead870df62e2311c67d5d1e1d2bd09035d18efedf9820b056e17258fa0136e4"},
		{1024, 768, 4, "21c20b62b922f9b48a63f65a0520b68cfc660abadf06dc0b3b7e208aa5f8d078"},
		{97, 55, 30, "a1e4daaa1eb6e374f2612d4f4cf8ee31e39348f476cc8dbef9d8e1e72c902c49"},
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
		{640, 360, 40, "240731cc1ada1868414dad07aa34c0de7e40821d46aa6b4ffbaa4d6a33c1d148"},
		{97, 55, 40, "67593997cff22a3f4ec7685a425b8b5fa50d66cb757a19d458efeab7c38a4b16"},
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

// roundClampRef is the reference pixel rounding: clamp to [0,255], then
// round half away from zero.
func roundClampRef(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(math.Round(v))
}

// TestClamp255MatchesRound checks clamp255 against the reference around
// every integer and half-integer in [-300, 300], at the two doubles that
// sit one ulp below a rounding boundary, and on random values.
func TestClamp255MatchesRound(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := clamp255(v), roundClampRef(v); got != want {
			t.Fatalf("clamp255(%v) = %d, want %d", v, got, want)
		}
	}
	for k := -300; k <= 300; k++ {
		for _, c := range []float64{float64(k), float64(k) + 0.5} {
			up, down := c, c
			check(c)
			for i := 0; i < 4; i++ {
				up = math.Nextafter(up, math.Inf(1))
				down = math.Nextafter(down, math.Inf(-1))
				check(up)
				check(down)
			}
		}
	}
	check(0.49999999999999994)
	check(254.49999999999997)
	check(math.Copysign(0, -1))
	check(math.Inf(1))
	check(math.Inf(-1))
	rng := simrand.New(5)
	for i := 0; i < 1_000_000; i++ {
		check(rng.Uniform(-20, 275))
	}
}
