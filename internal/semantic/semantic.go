// Package semantic implements semantic communication for spatial personas
// (§4.3): instead of streaming 3D meshes or rendered video, the sender
// transmits only keypoints and the receiver reconstructs the persona
// locally.
//
// Two encodings are provided:
//
//   - ModeFloat32 reproduces the paper's experiment: 74 tracked keypoints as
//     raw float32 coordinates, compressed with the lzma-like entropy coder.
//     Float mantissas of natural motion are high-entropy, so compression
//     gains little and the stream runs at ~0.64 Mbps at 90 FPS — matching
//     both the paper's synthetic estimate and FaceTime's measured 0.67 Mbps.
//   - ModeQuantized is the ablation variant: 14-bit quantization plus
//     temporal deltas, showing the headroom semantic streams still have.
//
// The defining property of semantic communication — every frame must be
// fully delivered for reconstruction (§4.3, Implications 2) — is enforced
// structurally: frames carry a checksum and decode is all-or-nothing, and
// ModeQuantized delta frames additionally require an unbroken chain from the
// last keyframe.
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

// Mode selects the wire encoding.
type Mode int

// Encoding modes.
const (
	// ModeFloat32 transmits full-precision coordinates (paper-faithful).
	ModeFloat32 Mode = iota
	// ModeQuantized transmits 14-bit quantized temporal deltas.
	ModeQuantized
)

func (m Mode) String() string {
	switch m {
	case ModeFloat32:
		return "float32"
	case ModeQuantized:
		return "quantized"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Quantization parameters for ModeQuantized: positions live in a ±0.5 m
// head/hand-local box sampled with 14 bits (~61 µm steps, far below visual
// threshold).
const (
	quantBits  = 14
	quantRange = 0.5
	quantScale = (1<<quantBits - 1) / (2 * quantRange)
)

// Errors returned by Decode.
var (
	ErrCorruptFrame = errors.New("semantic: corrupt frame (semantic data must be fully delivered)")
	ErrLostSync     = errors.New("semantic: delta chain broken; waiting for keyframe")
)

// Frame kinds on the wire.
const (
	kindKeyframe = 0x4B // 'K'
	kindDelta    = 0x44 // 'D'
)

// headerLen is kind(1) + mode(1) + seq(4) + crc(4).
const headerLen = 10

// DecodedFrame is the receiver-side result: the 74 tracked keypoints plus
// head pose, ready for local reconstruction.
type DecodedFrame struct {
	Points   []keypoints.Point // len == keypoints.TrackedTotal
	Yaw      float64
	Pitch    float64
	Roll     float64
	Seq      uint32
	Keyframe bool
}

// Encoder turns captured frames into semantic wire frames. All working
// state (coordinate flattening, quantization, the LZ hash chains and range-
// coder models) is reused across frames, so the steady-state cost of Encode
// is a single allocation: the returned wire frame, which the caller owns.
// AppendEncode, into a reused buffer, allocates nothing.
type Encoder struct {
	mode Mode
	// KeyframeInterval controls how often ModeQuantized emits a keyframe
	// (every frame is independent in ModeFloat32).
	KeyframeInterval int

	prev     []int32 // previous quantized values (ModeQuantized)
	sinceKey int
	havePrev bool
	scratch  []byte
	cs       []float64 // flattened coordinates scratch
	qs       []int32   // quantized values scratch
	cmp      *entropy.Compressor
	lastOut  int // previous wire size: sizes the next output buffer
}

// NewEncoder returns an encoder for the given mode.
func NewEncoder(mode Mode) *Encoder {
	return &Encoder{mode: mode, KeyframeInterval: 90, cmp: entropy.NewCompressor()}
}

func quantize(v float64) int32 {
	if v > quantRange {
		v = quantRange
	}
	if v < -quantRange {
		v = -quantRange
	}
	return int32(math.Round((v + quantRange) * quantScale))
}

func dequantize(q int32) float64 {
	return float64(q)/quantScale - quantRange
}

func zigzag(v int32) uint32 { return uint32((v << 1) ^ (v >> 31)) }
func unzig(u uint32) int32  { return int32(u>>1) ^ -int32(u&1) }

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
	kind := byte(kindKeyframe)

	// Compress appends the body straight after the header.
	start := len(dst)
	dst = append(dst, make([]byte, headerLen)...)

	switch e.mode {
	case ModeFloat32:
		raw := e.scratch[:0]
		var b4 [4]byte
		for _, v := range cs {
			binary.LittleEndian.PutUint32(b4[:], math.Float32bits(float32(v)))
			raw = append(raw, b4[:]...)
		}
		e.scratch = raw
		dst = e.cmp.Compress(dst, raw)
	case ModeQuantized:
		qs := e.qs[:0]
		for _, v := range cs {
			qs = append(qs, quantize(v))
		}
		e.qs = qs
		raw := e.scratch[:0]
		var vbuf [binary.MaxVarintLen32]byte
		if e.havePrev && e.sinceKey < e.KeyframeInterval {
			kind = kindDelta
			for i, q := range qs {
				n := binary.PutUvarint(vbuf[:], uint64(zigzag(q-e.prev[i])))
				raw = append(raw, vbuf[:n]...)
			}
			e.sinceKey++
		} else {
			for _, q := range qs {
				n := binary.PutUvarint(vbuf[:], uint64(zigzag(q)))
				raw = append(raw, vbuf[:n]...)
			}
			e.sinceKey = 0
		}
		e.scratch = raw
		e.prev = append(e.prev[:0], qs...)
		e.havePrev = true
		dst = e.cmp.Compress(dst, raw)
	default:
		panic(fmt.Sprintf("semantic: unknown mode %v", e.mode))
	}

	out := dst[start:]
	out[0] = kind
	out[1] = byte(e.mode)
	binary.BigEndian.PutUint32(out[2:], f.Seq)
	binary.BigEndian.PutUint32(out[6:], crc32.ChecksumIEEE(out[headerLen:]))
	e.lastOut = len(out)
	return dst
}

// Decoder reconstructs semantic frames. It refuses partial data: any
// truncation or corruption yields ErrCorruptFrame, and in ModeQuantized a
// gap in the delta chain yields ErrLostSync until the next keyframe — the
// mechanism behind the paper's "no rate adaptation" finding.
//
// Decode reuses one DecodedFrame (and all internal scratch): the returned
// frame is valid until the next successful Decode on the same Decoder; copy
// the Points you need to retain. Failed decodes leave the previous frame's
// contents untouched.
type Decoder struct {
	prev     []int32
	haveSync bool
	lastSeq  uint32

	raw  []byte
	cs   []float64
	qs   []int32
	dcmp *entropy.Decompressor
	out  DecodedFrame
}

// NewDecoder returns an empty decoder.
func NewDecoder() *Decoder { return &Decoder{dcmp: entropy.NewDecompressor()} }

// Decode parses one wire frame.
func (d *Decoder) Decode(wire []byte) (*DecodedFrame, error) {
	if len(wire) < headerLen {
		return nil, ErrCorruptFrame
	}
	kind, mode := wire[0], Mode(wire[1])
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

	if cap(d.cs) < nScalars {
		d.cs = make([]float64, nScalars)
	}
	cs := d.cs[:nScalars]
	switch mode {
	case ModeFloat32:
		if len(raw) != nScalars*4 {
			return nil, ErrCorruptFrame
		}
		for i := range cs {
			cs[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
		}
		d.haveSync = true
	case ModeQuantized:
		if cap(d.qs) < nScalars {
			d.qs = make([]int32, nScalars)
		}
		qs := d.qs[:nScalars]
		pos := 0
		for i := range qs {
			u, n := binary.Uvarint(raw[pos:])
			if n <= 0 {
				return nil, ErrCorruptFrame
			}
			pos += n
			qs[i] = unzig(uint32(u))
		}
		if pos != len(raw) {
			return nil, ErrCorruptFrame
		}
		switch kind {
		case kindKeyframe:
			d.haveSync = true
		case kindDelta:
			if !d.haveSync {
				return nil, ErrLostSync
			}
			if seq != d.lastSeq+1 {
				// A frame in the chain was lost: everything until the next
				// keyframe is unreconstructable.
				d.haveSync = false
				return nil, ErrLostSync
			}
			for i := range qs {
				qs[i] += d.prev[i]
			}
		default:
			return nil, ErrCorruptFrame
		}
		d.prev = append(d.prev[:0], qs...)
		for i, q := range qs {
			cs[i] = dequantize(q)
		}
	default:
		return nil, ErrCorruptFrame
	}
	d.lastSeq = seq

	out := &d.out
	if out.Points == nil {
		out.Points = make([]keypoints.Point, keypoints.TrackedTotal)
	}
	out.Seq = seq
	out.Keyframe = kind == kindKeyframe
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
// uncompressed size. ModeQuantized frames fall through to a full Decode so
// the delta-chain (ErrLostSync) semantics stay exact. Decoder state
// (sync/sequence tracking) advances exactly as under Decode, so the two can
// be interleaved.
func (d *Decoder) Validate(wire []byte) error {
	if len(wire) < headerLen {
		return ErrCorruptFrame
	}
	mode := Mode(wire[1])
	if mode != ModeFloat32 {
		_, err := d.Decode(wire)
		return err
	}
	// Decode ignores the kind byte in ModeFloat32 (every frame is
	// independent), so Validate does too.
	seq := binary.BigEndian.Uint32(wire[2:])
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
	d.haveSync = true
	d.lastSeq = seq
	return nil
}

// InSync reports whether the decoder can currently decode delta frames.
func (d *Decoder) InSync() bool { return d.haveSync }

// BitrateBps converts a mean frame size to a bitrate at the given FPS.
func BitrateBps(meanFrameBytes float64, fps float64) float64 {
	return meanFrameBytes * 8 * fps
}
