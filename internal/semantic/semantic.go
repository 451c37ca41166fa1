// Package semantic implements semantic communication for spatial personas
// (§4.3): instead of streaming 3D meshes or rendered video, the sender
// transmits only keypoints and the receiver reconstructs the persona
// locally.
//
// The encoding reproduces the paper's experiment: 74 tracked keypoints as
// raw float32 coordinates, compressed with the lzma-like entropy coder.
// Float mantissas of natural motion are high-entropy, so compression gains
// little and the stream runs at ~0.64 Mbps at 90 FPS — matching both the
// paper's synthetic estimate and FaceTime's measured 0.67 Mbps.
//
// The defining property of semantic communication — every frame must be
// fully delivered for reconstruction (§4.3, Implications 2) — is enforced
// structurally: frames carry a checksum and decode is all-or-nothing.
package semantic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"telepresence/internal/entropy"
	"telepresence/internal/keypoints"
)

// ErrCorruptFrame is the error Decode and Validate return for any frame
// that is not exactly an encoder's output.
var ErrCorruptFrame = errors.New("semantic: corrupt frame (semantic data must be fully delivered)")

// The wire header is kind(1) + mode(1) + seq(4) + crc(4). Every frame is
// independent: the kind byte is always 'K' (keyframe) and the mode byte
// always 0 (float32); a decoder refuses any other mode byte.
const (
	kindKeyframe = 0x4B // 'K'
	modeFloat32  = 0
	headerLen    = 10
)

// DecodedFrame is the receiver-side result: the 74 tracked keypoints plus
// head pose, ready for local reconstruction.
type DecodedFrame struct {
	Points []keypoints.Point // len == keypoints.TrackedTotal
	Yaw    float64
	Pitch  float64
	Roll   float64
	Seq    uint32
}

// Encoder turns captured frames into semantic wire frames. All working
// state (coordinate flattening, the LZ hash chains and range-coder models)
// is reused across frames, so the steady-state cost of Encode is a single
// allocation: the returned wire frame, which the caller owns.
// AppendEncode, into a reused buffer, allocates nothing.
type Encoder struct {
	scratch []byte
	cs      []float64 // flattened coordinates scratch
	cmp     *entropy.Compressor
	lastOut int // previous wire size: sizes the next output buffer
}

// NewEncoder returns an encoder.
func NewEncoder() *Encoder {
	return &Encoder{cmp: entropy.NewCompressor()}
}

// trackedIdx caches the tracked-face index set; it never changes.
var trackedIdx = keypoints.TrackedFaceIndices()

// coordsInto flattens a frame into the 225 transmitted scalars (74 points x
// 3 coordinates plus the 3 head-pose angles), appending to dst.
func coordsInto(dst []float64, f *keypoints.Frame) []float64 {
	for _, i := range trackedIdx {
		p := f.Face[i]
		dst = append(dst, p.X, p.Y, p.Z)
	}
	for i := range f.LeftHand {
		p := f.LeftHand[i]
		dst = append(dst, p.X, p.Y, p.Z)
	}
	for i := range f.RightHand {
		p := f.RightHand[i]
		dst = append(dst, p.X, p.Y, p.Z)
	}
	return append(dst, f.HeadYaw, f.HeadPitch, f.HeadRoll)
}

// Encode produces the wire frame for f. The returned slice is freshly
// allocated and owned by the caller (it may be handed to the network layer
// without copying). It is AppendEncode into a fresh buffer sized from the
// previous frame, so growth reallocation is rare.
func (e *Encoder) Encode(f *keypoints.Frame) []byte {
	return e.AppendEncode(make([]byte, 0, headerLen+e.lastOut+64), f)
}

// AppendEncode appends the wire frame for f to dst and returns the
// extended slice. Everything but dst is reused across frames, so a caller
// that reuses dst codes without allocating once dst has grown.
func (e *Encoder) AppendEncode(dst []byte, f *keypoints.Frame) []byte {
	cs := coordsInto(e.cs[:0], f)
	e.cs = cs

	// Compress appends the body straight after the header.
	start := len(dst)
	dst = append(dst, make([]byte, headerLen)...)
	raw := e.scratch[:0]
	var b4 [4]byte
	for _, v := range cs {
		binary.LittleEndian.PutUint32(b4[:], math.Float32bits(float32(v)))
		raw = append(raw, b4[:]...)
	}
	e.scratch = raw
	dst = e.cmp.Compress(dst, raw)

	out := dst[start:]
	out[0] = kindKeyframe
	out[1] = modeFloat32
	binary.BigEndian.PutUint32(out[2:], f.Seq)
	binary.BigEndian.PutUint32(out[6:], crc32.ChecksumIEEE(out[headerLen:]))
	e.lastOut = len(out)
	return dst
}

// Decoder reconstructs semantic frames. It refuses partial data: any
// truncation or corruption yields ErrCorruptFrame — the all-or-nothing
// property behind the paper's "no rate adaptation" finding.
//
// Decode reuses one DecodedFrame (and all internal scratch): the returned
// frame is valid until the next successful Decode on the same Decoder; copy
// the Points you need to retain. Failed decodes leave the previous frame's
// contents untouched.
type Decoder struct {
	raw  []byte
	cs   []float64
	dcmp *entropy.Decompressor
	out  DecodedFrame
}

// NewDecoder returns an empty decoder.
func NewDecoder() *Decoder { return &Decoder{dcmp: entropy.NewDecompressor()} }

// Decode parses one wire frame.
func (d *Decoder) Decode(wire []byte) (*DecodedFrame, error) {
	if len(wire) < headerLen || wire[1] != modeFloat32 {
		return nil, ErrCorruptFrame
	}
	seq := binary.BigEndian.Uint32(wire[2:])
	wantCRC := binary.BigEndian.Uint32(wire[6:])
	body := wire[headerLen:]
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, ErrCorruptFrame
	}

	nScalars := keypoints.TrackedTotal*3 + 3
	raw, err := d.dcmp.Decompress(d.raw[:0], body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
	}
	d.raw = raw
	if len(raw) != nScalars*4 {
		return nil, ErrCorruptFrame
	}

	if cap(d.cs) < nScalars {
		d.cs = make([]float64, nScalars)
	}
	cs := d.cs[:nScalars]
	for i := range cs {
		cs[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
	}

	out := &d.out
	if out.Points == nil {
		out.Points = make([]keypoints.Point, keypoints.TrackedTotal)
	}
	out.Seq = seq
	for i := 0; i < keypoints.TrackedTotal; i++ {
		out.Points[i] = keypoints.Point{X: cs[i*3], Y: cs[i*3+1], Z: cs[i*3+2]}
	}
	out.Yaw, out.Pitch, out.Roll = cs[nScalars-3], cs[nScalars-2], cs[nScalars-1]
	return out, nil
}

// Validate checks that wire is a decodable semantic frame — the per-frame
// question the session measurement pipeline asks — without materializing
// coordinates. The all-or-nothing property rests on the same checks Decode
// performs: frame header, CRC-32 over the body, and the declared
// uncompressed size. Like Decode, it ignores the kind byte (every frame is
// independent).
func (d *Decoder) Validate(wire []byte) error {
	if len(wire) < headerLen || wire[1] != modeFloat32 {
		return ErrCorruptFrame
	}
	wantCRC := binary.BigEndian.Uint32(wire[6:])
	body := wire[headerLen:]
	if crc32.ChecksumIEEE(body) != wantCRC {
		return ErrCorruptFrame
	}
	// A CRC-authenticated body is the encoder's exact output; the declared
	// size is then the decompressed length, so the nScalars*4 check holds
	// without running the entropy decoder.
	size, n := binary.Uvarint(body)
	if n <= 0 || size != uint64(keypoints.TrackedTotal*3+3)*4 {
		return ErrCorruptFrame
	}
	return nil
}

// BitrateBps converts a mean frame size to a bitrate at the given FPS.
func BitrateBps(meanFrameBytes float64, fps float64) float64 {
	return meanFrameBytes * 8 * fps
}
