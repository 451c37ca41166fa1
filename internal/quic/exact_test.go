package quic

import (
	"bytes"
	"testing"

	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
)

// lcgScramble is the reference scrambler the cached keystream replaced: the
// LCG restarted from the key on every call, XORed byte by byte in place.
func lcgScramble(key byte, b []byte) {
	state := uint32(key) * 2654435761
	for i := range b {
		state = state*1664525 + 1013904223
		b[i] ^= byte(state >> 24)
	}
}

// TestScrambleMatchesLCG pins scramble to the per-call LCG for every key
// and every payload length from 0 to 2×MTU+1, visited in a random order so
// the cached keystream both grows and is reused, and checks that
// scrambling twice in place restores the payload.
func TestScrambleMatchesLCG(t *testing.T) {
	rng := simrand.New(15)
	const maxLen = 2*MTU + 1
	src := make([]byte, maxLen)
	for i := range src {
		src[i] = byte(rng.Intn(256))
	}
	want := make([]byte, maxLen)
	buf := make([]byte, maxLen)
	s := simtime.NewScheduler()
	for key := 0; key < 256; key++ {
		copy(want, src)
		lcgScramble(byte(key), want)
		c := NewConn(s, nil, Config{ConnID: 1, Key: byte(key)})
		for _, n := range rng.Perm(maxLen + 1) {
			b := buf[:n]
			copy(b, src)
			c.scramble(b)
			if !bytes.Equal(b, want[:n]) {
				t.Fatalf("key %d, %d bytes: scramble differs from the LCG", key, n)
			}
			c.scramble(b)
			if !bytes.Equal(b, src[:n]) {
				t.Fatalf("key %d, %d bytes: scrambling twice is not the identity", key, n)
			}
		}
	}
}
