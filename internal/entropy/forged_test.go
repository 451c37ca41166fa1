package entropy_test

import (
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"telepresence/internal/entropy"
	"telepresence/internal/meshcodec"
	"telepresence/internal/semantic"
	"telepresence/internal/video"
)

// forgedStream is 13 bytes that declare a 2 GiB decoded size: a 5-byte
// length header, then a range-coder stream that cannot produce it.
var forgedStream = []byte{0x80, 0x80, 0x80, 0x80, 0x08, 0, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// meshHeader is a meshcodec stream header declaring nv vertices and nt
// triangles; the entropy-coded body follows it.
func meshHeader(nv, nt uint64) []byte {
	b := append([]byte("MCv1"), 8)
	b = binary.AppendUvarint(b, nv)
	b = binary.AppendUvarint(b, nt)
	return append(b, make([]byte, 48)...)
}

// TestForgedSizeBoundedAllocation feeds the forged stream to Decompress and
// to every decoder that reaches it with outside bytes. Each must reject the
// input without allocating anywhere near the declared size.
func TestForgedSizeBoundedAllocation(t *testing.T) {
	if size, _ := binary.Uvarint(forgedStream); size != 1<<31 {
		t.Fatalf("forged header declares %d bytes", size)
	}
	const limit = 1 << 20
	vframe := append([]byte{0x49, 64, 0, 64, 0, 0, 0, 0x80, 0x3f}, forgedStream...)
	sframe := make([]byte, 10, 10+len(forgedStream))
	binary.BigEndian.PutUint32(sframe[6:], crc32.ChecksumIEEE(forgedStream))
	sframe = append(sframe, forgedStream...)
	cases := []struct {
		name   string
		decode func() error
	}{
		{"entropy.Decompress", func() error { _, err := entropy.Decompress(nil, forgedStream); return err }},
		{"video.Decoder.Validate", func() error { return video.NewDecoder().Validate(vframe) }},
		{"video.Decoder.Decode", func() error { _, err := video.NewDecoder().Decode(vframe); return err }},
		{"semantic.Decoder.Decode", func() error { _, err := semantic.NewDecoder().Decode(sframe); return err }},
		{"meshcodec.Decode", func() error {
			_, err := meshcodec.Decode(append(meshHeader(1, 1), forgedStream...))
			return err
		}},
		// Counts are checked against the decoded body before the vertex
		// and triangle arrays are allocated.
		{"meshcodec.Decode counts", func() error {
			body := entropy.Compress(nil, make([]byte, 12))
			_, err := meshcodec.Decode(append(meshHeader(1<<26, 1<<26), body...))
			return err
		}},
	}
	for _, c := range cases {
		var err error
		if n := allocated(func() { err = c.decode() }); n > limit {
			t.Errorf("%s allocated %d bytes on a forged stream, want <= %d", c.name, n, limit)
		}
		if err == nil {
			t.Errorf("%s accepted a forged stream", c.name)
		}
	}
}
