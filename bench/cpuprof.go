package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the subset of pprof's profile.proto that a runtime/pprof
// CPU profile needs for flat, per-package self time:
//
//	Profile:   sample_type=1, sample=2, location=4, function=5, string_table=6
//	ValueType: type=1         Sample: location_id=1, value=2
//	Location:  id=1, line=4   Line:   function_id=1
//	Function:  id=1, name=2

// flatProfile is a CPU profile's self time by leaf function.
type flatProfile struct {
	samples int64
	// selfNs maps leaf function names to CPU nanoseconds.
	selfNs map[string]int64
}

// parseCPUProfile decodes a gzipped or raw runtime/pprof CPU profile.
func parseCPUProfile(r io.Reader) (flatProfile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return flatProfile{}, err
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return flatProfile{}, err
		}
		if data, err = io.ReadAll(gz); err != nil {
			return flatProfile{}, err
		}
	}

	type sample struct{ locs, vals []uint64 }
	var (
		strs     []string
		types    []uint64 // string index of each sample type's name
		samples  []sample
		locFunc  = map[uint64]uint64{} // location -> leaf function
		funcName = map[uint64]uint64{} // function -> name string index
	)
	err = eachField(data, func(f int, v uint64, b []byte) error {
		switch f {
		case 1:
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2:
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendInts(s.locs, v, b)
				case 2:
					s.vals, err = appendInts(s.vals, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && fn == 0: // the first line is the innermost inlined frame
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return flatProfile{}, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	countIdx, cpuIdx := -1, -1
	for i, t := range types {
		switch str(t) {
		case "samples":
			countIdx = i
		case "cpu":
			cpuIdx = i
		}
	}
	if countIdx < 0 || cpuIdx < 0 {
		return flatProfile{}, errors.New("cpu profile: no samples/count and cpu/nanoseconds sample types")
	}
	p := flatProfile{selfNs: map[string]int64{}}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) <= countIdx || len(s.vals) <= cpuIdx {
			continue
		}
		p.samples += int64(s.vals[countIdx])
		p.selfNs[str(funcName[locFunc[s.locs[0]]])] += int64(s.vals[cpuIdx])
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: v carries
// varint values, b the payload of length-delimited fields.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for pos := 0; pos < len(msg); {
		tag, n := uvarint(msg[pos:])
		if n <= 0 {
			return errors.New("cpu profile: bad tag")
		}
		pos += n
		var v uint64
		var b []byte
		switch tag & 7 {
		case 0:
			if v, n = uvarint(msg[pos:]); n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			pos += n
		case 1:
			pos += 8
		case 2:
			l, n := uvarint(msg[pos:])
			if n <= 0 || l > uint64(len(msg)-pos-n) {
				return errors.New("cpu profile: bad length")
			}
			pos += n
			b = msg[pos : pos+int(l)]
			pos += int(l)
		case 5:
			pos += 4
		default:
			return fmt.Errorf("cpu profile: wire type %d", tag&7)
		}
		if pos > len(msg) {
			return errors.New("cpu profile: truncated")
		}
		if err := fn(int(tag>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a varint, returning n <= 0 when it is malformed.
func uvarint(b []byte) (v uint64, n int) {
	for shift := uint(0); n < len(b) && shift < 64; shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
	return 0, 0
}

// appendInts appends a repeated integer field, packed or not.
func appendInts(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return nil, errors.New("cpu profile: bad packed varint")
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst, nil
}

// pkgBuckets are the packages the benchmark reports self time for; every
// other package counts as "other".
var pkgBuckets = []string{
	"video", "entropy", "simrand", "math", "math_rand", "rtp", "recovery",
	"ratecontrol", "netem", "quic", "semantic", "simtime", "vca", "scenario",
	"geo", "stats", "fleet", "core", "encoding_json", "runtime", "syscall", "other",
}

// pkgBucket maps a Go symbol ("telepresence/internal/video.(*Encoder).Encode",
// "runtime.mallocgc") to its pkgBuckets entry.
func pkgBucket(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 { // generic type arguments
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	if rest, ok := strings.CutPrefix(pkg, "telepresence/internal/"); ok {
		for _, b := range pkgBuckets {
			if rest == b {
				return b
			}
		}
		return "other"
	}
	switch {
	case pkg == "math" || pkg == "math/bits":
		return "math"
	case strings.HasPrefix(pkg, "math/rand"):
		return "math_rand"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "syscall" || strings.HasSuffix(pkg, "/syscall") || strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
