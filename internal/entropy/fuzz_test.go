package entropy

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecompress feeds arbitrary bytes to Decompress, which must not panic
// and must allocate in proportion to its input whatever size the header
// declares, and round-trips the same bytes through Compress.
func FuzzDecompress(f *testing.F) {
	for _, src := range [][]byte{nil, []byte("a"), []byte("persona persona persona"), bytes.Repeat([]byte{0}, 4096)} {
		comp := Compress(nil, src)
		f.Add(comp)
		f.Add(comp[:len(comp)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = Decompress(nil, data)
		runtime.ReadMemStats(&after)
		// One input byte decodes to at most a few KiB (see preallocMin),
		// and growing by doubling at most doubles that.
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+32<<10*len(data)); n > limit {
			t.Fatalf("Decompress of %d bytes allocated %d bytes, want <= %d", len(data), n, limit)
		}

		got, err := Decompress(nil, Compress(nil, data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip of %d bytes failed (err %v)", len(data), err)
		}
	})
}
