package video

import (
	"testing"

	"telepresence/internal/simrand"
)

// FuzzValidate checks that Validate accepts or rejects exactly what Decode
// does, on arbitrary bytes, both on a fresh decoder and on one holding a
// reference frame (so delta frames can parse), as TestValidateMatchesDecode
// does for a live stream.
func FuzzValidate(f *testing.F) {
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
