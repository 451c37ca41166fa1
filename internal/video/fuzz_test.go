package video

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"telepresence/internal/entropy"
	"telepresence/internal/simrand"
)

// fuzzStream encodes three frames of a small scene: a keyframe and two
// delta frames.
func fuzzStream(f *testing.F) [][]byte {
	scene := NewScene(simrand.New(17), 40, 24, 30)
	enc, err := NewEncoder(Config{W: 40, H: 24, FPS: 30, Quality: 1, GOP: 10, SkipThreshold: 2})
	if err != nil {
		f.Fatal(err)
	}
	var stream [][]byte
	for i := 0; i < 3; i++ {
		ef, err := enc.Encode(scene.Next())
		if err != nil {
			f.Fatal(err)
		}
		stream = append(stream, append([]byte(nil), ef.Data...))
	}
	return stream
}

// FuzzValidate checks that Validate accepts or rejects exactly what Decode
// does, on arbitrary bytes, both on a fresh decoder and on one holding a
// reference frame (so delta frames can parse), as TestValidateMatchesDecode
// does for a live stream.
func FuzzValidate(f *testing.F) {
	stream := fuzzStream(f)
	key := stream[0]
	for _, fr := range stream {
		f.Add(fr)
		f.Add(fr[:len(fr)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, primed := range []bool{false, true} {
			val, dec := NewDecoder(), NewDecoder()
			if primed {
				if val.Validate(key) != nil {
					t.Fatal("Validate rejected the reference keyframe")
				}
				if _, err := dec.Decode(key); err != nil {
					t.Fatal("Decode rejected the reference keyframe")
				}
			}
			vErr := val.Validate(data)
			_, dErr := dec.Decode(data)
			if (vErr == nil) != (dErr == nil) {
				t.Fatalf("primed=%v: Validate err=%v, Decode err=%v", primed, vErr, dErr)
			}
		}
	})
}

// FuzzDecode feeds arbitrary bytes to Decode, on a fresh decoder and on one
// holding a reference frame. Decode must not panic, an accepted frame must
// have the header's dimensions, and allocation must stay in proportion to
// the input: the body is at most what entropy.Decompress may allocate
// (FuzzDecompress's bound), and the one frame Decode allocates has at most
// 64 pixels per body byte, since every block costs a byte.
func FuzzDecode(f *testing.F) {
	stream := fuzzStream(f)
	key := stream[0]
	for _, fr := range stream {
		f.Add(fr)
		f.Add(fr[:len(fr)-1])
	}
	// A keyframe of one block whose 64 coefficients are all -2^31, at the
	// finest qscale a header can carry: the dequantised values overflow.
	hdr := []byte{frameKey, 8, 0, 8, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[5:], math.Float32bits(math.SmallestNonzeroFloat32))
	var body []byte
	for range 64 {
		body = binary.AppendUvarint(body, 0)
		body = binary.AppendUvarint(body, math.MaxUint32)
	}
	body = binary.AppendUvarint(body, 1<<20)
	f.Add(entropy.Compress(hdr, body))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, primed := range []bool{false, true} {
			dec := NewDecoder()
			if primed {
				if _, err := dec.Decode(key); err != nil {
					t.Fatal("Decode rejected the reference keyframe")
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fr, err := dec.Decode(data)
			runtime.ReadMemStats(&after)
			bodyLimit := uint64(1<<20 + 32<<10*len(data))
			if n, limit := after.TotalAlloc-before.TotalAlloc, 65*bodyLimit; n > limit {
				t.Fatalf("primed=%v: Decode of %d bytes allocated %d bytes, want <= %d", primed, len(data), n, limit)
			}
			if err != nil {
				continue
			}
			w := int(binary.LittleEndian.Uint16(data[1:]))
			h := int(binary.LittleEndian.Uint16(data[3:]))
			if fr.W != w || fr.H != h || len(fr.Pix) != w*h {
				t.Fatalf("primed=%v: accepted a %dx%d header as a %dx%d frame of %d pixels", primed, w, h, fr.W, fr.H, len(fr.Pix))
			}
		}
	})
}
