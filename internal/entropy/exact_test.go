package entropy

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"telepresence/internal/simrand"
)

// compressCorpus is a mixed corpus for pinning the LZ match finder: random
// bytes (no matches), low-alphabet bytes (short matches, many hash-chain
// candidates), repetitive text (long matches) and periodic data with
// sparse noise (matches cut short at a mismatch).
func compressCorpus() [][]byte {
	rng := simrand.New(21)
	var corpus [][]byte
	for i := 0; i < 400; i++ {
		buf := make([]byte, rng.Intn(6000))
		switch i % 4 {
		case 0:
			for j := range buf {
				buf[j] = byte(rng.Intn(256))
			}
		case 1:
			alpha := 2 + rng.Intn(6)
			for j := range buf {
				buf[j] = byte(rng.Intn(alpha))
			}
		case 2:
			words := []string{"persona ", "keypoint ", "vision ", "pro ", "spatial "}
			var b []byte
			for len(b) < len(buf) {
				b = append(b, words[rng.Intn(len(words))]...)
			}
			copy(buf, b)
		case 3:
			period := 1 + rng.Intn(300)
			for j := range buf {
				buf[j] = byte(j % period)
				if rng.Intn(50) == 0 {
					buf[j] ^= byte(1 + rng.Intn(255))
				}
			}
		}
		corpus = append(corpus, buf)
	}
	return corpus
}

// TestCompressDigest pins the compressed bytes of the mixed corpus. The
// digest was recorded before the match finder's chain pre-check; the match
// finder must stay bit-exact.
func TestCompressDigest(t *testing.T) {
	const want = "132cd253a6a7efff0156be3814067c95114a5ef7f805e1f43771430075f6fe45"
	c := NewCompressor()
	d := NewDecompressor()
	h := sha256.New()
	var dst, raw []byte
	for i, src := range compressCorpus() {
		dst = c.Compress(dst[:0], src)
		h.Write(dst)
		var err error
		if raw, err = d.Decompress(raw[:0], dst); err != nil || string(raw) != string(src) {
			t.Fatalf("buffer %d: round trip failed (err %v)", i, err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("compress digest = %s, want %s", got, want)
	}
}
