package meshcodec

import (
	"testing"

	"telepresence/internal/mesh"
)

// FuzzDecode feeds arbitrary bytes to Decode, which must not panic. A
// stream it accepts carries a valid mesh, so the mesh must re-encode at
// the stream's own quantBits and decode again to the same vertex and
// triangle counts.
func FuzzDecode(f *testing.F) {
	flat := &mesh.Mesh{
		Vertices:  []mesh.Vec3{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}},
		Triangles: []mesh.Triangle{{0, 1, 2}, {1, 3, 2}},
	}
	for _, c := range []struct {
		m    *mesh.Mesh
		bits int
	}{{head(8, 200), 12}, {flat, DefaultQuantBits}, {&mesh.Mesh{}, 1}} {
		b, err := Encode(c.m, c.bits)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte("MCv1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		bits := int(data[4])
		again, err := Encode(m, bits)
		if err != nil {
			t.Fatalf("accepted mesh does not re-encode at %d bits: %v", bits, err)
		}
		m2, err := Decode(again)
		if err != nil {
			t.Fatalf("re-encoded mesh does not decode: %v", err)
		}
		if m2.VertexCount() != m.VertexCount() || m2.TriangleCount() != m.TriangleCount() {
			t.Fatalf("re-encode changed counts: %d/%d vertices/triangles, then %d/%d",
				m.VertexCount(), m.TriangleCount(), m2.VertexCount(), m2.TriangleCount())
		}
	})
}
