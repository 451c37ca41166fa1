package semantic

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to a fresh Decoder, which must not
// panic, and requires Validate to accept every frame Decode accepts: the
// session layer counts decodable frames through Validate. Each input runs
// as given and again with its CRC recomputed, so mutated bodies get past
// the checksum into the entropy decoder and the coordinate parsers.
func FuzzDecode(f *testing.F) {
	frames := genFrames(13, 3)
	for _, mode := range []Mode{ModeFloat32, ModeQuantized} {
		enc := NewEncoder(mode)
		for i := range frames {
			wire := enc.Encode(&frames[i])
			f.Add(wire)
			f.Add(wire[:len(wire)/2])
		}
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		check := func(wire []byte) {
			_, decErr := NewDecoder().Decode(wire)
			valErr := NewDecoder().Validate(wire)
			if decErr == nil && valErr != nil {
				t.Fatalf("Decode accepted a frame Validate rejects: %v", valErr)
			}
		}
		check(wire)
		if len(wire) >= headerLen {
			fixed := append([]byte(nil), wire...)
			binary.BigEndian.PutUint32(fixed[6:], crc32.ChecksumIEEE(fixed[headerLen:]))
			check(fixed)
		}
	})
}
