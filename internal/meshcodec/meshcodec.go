// Package meshcodec is the repository's stand-in for Google Draco (§4.3):
// a 3D mesh compressor built from position quantization, traversal-order
// delta prediction, and the shared lzma-like entropy coder. The paper uses
// Draco to estimate what directly streaming a spatial persona's mesh would
// cost (108.4±16.7 Mbps for 70-90K-triangle heads at 90 FPS); this codec
// reproduces that order of magnitude with the same architecture.
package meshcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"telepresence/internal/entropy"
	"telepresence/internal/mesh"
)

// DefaultQuantBits matches Draco's default position quantization.
const DefaultQuantBits = 14

// magic identifies an encoded mesh stream.
var magic = [4]byte{'M', 'C', 'v', '1'}

// ErrCorrupt reports an undecodable stream.
var ErrCorrupt = errors.New("meshcodec: corrupt stream")

// Encode compresses m with the given position quantization bits (1-24).
func Encode(m *mesh.Mesh, quantBits int) ([]byte, error) {
	if quantBits < 1 || quantBits > 24 {
		return nil, fmt.Errorf("meshcodec: quantBits %d out of range", quantBits)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	min, max := m.Bounds()
	span := max.Sub(min)
	// Avoid zero spans for flat/degenerate axes.
	if span.X <= 0 {
		span.X = 1e-9
	}
	if span.Y <= 0 {
		span.Y = 1e-9
	}
	if span.Z <= 0 {
		span.Z = 1e-9
	}
	scale := float64(int64(1)<<quantBits - 1)

	// Header: magic, bits, counts, bounds.
	hdr := make([]byte, 0, 64)
	hdr = append(hdr, magic[:]...)
	hdr = append(hdr, byte(quantBits))
	var tmp [binary.MaxVarintLen64]byte
	putUv := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		hdr = append(hdr, tmp[:n]...)
	}
	putUv(uint64(m.VertexCount()))
	putUv(uint64(m.TriangleCount()))
	var f8 [8]byte
	for _, v := range []float64{min.X, min.Y, min.Z, span.X, span.Y, span.Z} {
		binary.LittleEndian.PutUint64(f8[:], math.Float64bits(v))
		hdr = append(hdr, f8[:]...)
	}

	// Body: delta-coded quantized positions in vertex order (generation
	// order is spatially coherent, the moral equivalent of Draco's
	// traversal prediction), then delta-coded connectivity.
	body := make([]byte, 0, m.VertexCount()*6)
	putBody := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		body = append(body, tmp[:n]...)
	}
	zig := func(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

	var prev [3]int64
	for _, p := range m.Vertices {
		q := [3]int64{
			int64(math.Round((p.X - min.X) / span.X * scale)),
			int64(math.Round((p.Y - min.Y) / span.Y * scale)),
			int64(math.Round((p.Z - min.Z) / span.Z * scale)),
		}
		for k := 0; k < 3; k++ {
			putBody(zig(q[k] - prev[k]))
		}
		prev = q
	}
	var prevIdx int64
	for _, t := range m.Triangles {
		for _, v := range t {
			putBody(zig(int64(v) - prevIdx))
			prevIdx = int64(v)
		}
	}
	return entropy.Compress(hdr, body), nil
}

// Decode reverses Encode. Quantization error is bounded by half a step per
// axis.
func Decode(b []byte) (*mesh.Mesh, error) {
	if len(b) < 5 || [4]byte(b[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	quantBits := int(b[4])
	if quantBits < 1 || quantBits > 24 {
		return nil, fmt.Errorf("%w: quantBits %d", ErrCorrupt, quantBits)
	}
	pos := 5
	getUv := func() (uint64, error) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, ErrCorrupt
		}
		pos += n
		return v, nil
	}
	nv, err := getUv()
	if err != nil {
		return nil, err
	}
	nt, err := getUv()
	if err != nil {
		return nil, err
	}
	if nv > 1<<26 || nt > 1<<26 {
		return nil, fmt.Errorf("%w: implausible counts %d/%d", ErrCorrupt, nv, nt)
	}
	if pos+48 > len(b) {
		return nil, ErrCorrupt
	}
	var bounds [6]float64
	for i := range bounds {
		bounds[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
		pos += 8
	}
	min := mesh.Vec3{X: bounds[0], Y: bounds[1], Z: bounds[2]}
	span := mesh.Vec3{X: bounds[3], Y: bounds[4], Z: bounds[5]}
	scale := float64(int64(1)<<quantBits - 1)

	body, err := entropy.Decompress(nil, b[pos:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Every vertex and triangle takes three varints of at least a byte:
	// check the counts against the body before allocating for them.
	if 3*(nv+nt) > uint64(len(body)) {
		return nil, fmt.Errorf("%w: counts %d/%d exceed %d body bytes", ErrCorrupt, nv, nt, len(body))
	}
	bpos := 0
	next := func() (int64, error) {
		u, n := binary.Uvarint(body[bpos:])
		if n <= 0 {
			return 0, ErrCorrupt
		}
		bpos += n
		return int64(u>>1) ^ -int64(u&1), nil
	}

	m := &mesh.Mesh{
		Vertices:  make([]mesh.Vec3, nv),
		Triangles: make([]mesh.Triangle, nt),
	}
	var prev [3]int64
	for i := range m.Vertices {
		for k := 0; k < 3; k++ {
			d, err := next()
			if err != nil {
				return nil, err
			}
			prev[k] += d
		}
		m.Vertices[i] = mesh.Vec3{
			X: min.X + float64(prev[0])/scale*span.X,
			Y: min.Y + float64(prev[1])/scale*span.Y,
			Z: min.Z + float64(prev[2])/scale*span.Z,
		}
	}
	var prevIdx int64
	for i := range m.Triangles {
		for k := 0; k < 3; k++ {
			d, err := next()
			if err != nil {
				return nil, err
			}
			prevIdx += d
			if prevIdx < 0 || prevIdx >= int64(nv) {
				return nil, fmt.Errorf("%w: index %d out of %d vertices", ErrCorrupt, prevIdx, nv)
			}
			m.Triangles[i][k] = int32(prevIdx)
		}
	}
	if bpos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-bpos)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, nil
}

// MaxQuantError returns the worst-case per-axis reconstruction error for a
// mesh with the given bounds span and quantization bits.
func MaxQuantError(span float64, quantBits int) float64 {
	return span / float64(int64(1)<<quantBits-1) / 2
}

// StreamBitrateBps returns the bandwidth needed to stream payloadBytes-sized
// encoded meshes at the given frame rate (the paper's 90 FPS experiment).
func StreamBitrateBps(payloadBytes int, fps float64) float64 {
	return float64(payloadBytes) * 8 * fps
}
