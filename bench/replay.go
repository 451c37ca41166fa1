package main

import (
	"bytes"
	"fmt"
	"time"

	"telepresence/internal/rtp"
	"telepresence/internal/simrand"
	"telepresence/internal/vca"
	"telepresence/internal/video"
)

// replayApp is one 2D video spec a workload's sessions send.
type replayApp struct {
	name string // metric component: replay.<name>.*
	app  vca.App
	fps  float64
}

// replayApps are every app the replay metrics name, in report order.
var replayApps = []string{"facetime", "zoom", "webex", "teams"}

// replayResult is the per-frame cost of each public call of one app's 2D
// video pipeline.
type replayResult struct {
	frames                                     int
	sceneNs, encodeNs, packNs, depackNs, valNs time.Duration
	bytes                                      int
	validateErrors                             int
}

// replay builds one sender and one receiver pipeline the way
// vca.(*Session).wireVideo does and times every public call over seconds of
// frames. Every frame must reassemble byte for byte and validate; mismatches
// are returned as an error, validation failures are counted.
func replay(a replayApp, seed int64, seconds float64) (replayResult, error) {
	spec := vca.SpecFor(a.app)
	enc, err := video.NewEncoder(video.Config{
		W: spec.VideoW, H: spec.VideoH, FPS: a.fps,
		TargetBps: spec.VideoTargetBps, Quality: 1,
		GOP: int(a.fps) * 2, SkipThreshold: 2,
	})
	if err != nil {
		return replayResult{}, err
	}
	scene := video.NewScene(simrand.New(seed).Split("scene0"), spec.VideoW, spec.VideoH, a.fps)
	pt := rtp.PTGenericVideo
	if a.app == vca.FaceTime {
		pt = rtp.PTFaceTimeVideo
	}
	packer := rtp.NewPacketizer(pt, rtp.VideoSSRC(0))
	depack := rtp.NewDepacketizer()
	dec := video.NewDecoder()

	var r replayResult
	r.frames = int(seconds * a.fps)
	for k := 0; k < r.frames; k++ {
		t := time.Now()
		f := scene.Next()
		r.sceneNs += time.Since(t)

		t = time.Now()
		ef, err := enc.Encode(f)
		r.encodeNs += time.Since(t)
		if err != nil {
			return r, fmt.Errorf("replay %s: encode frame %d: %w", a.name, k, err)
		}
		r.bytes += len(ef.Data)

		t = time.Now()
		pkts := packer.Packetize(ef.Data, float64(k)/a.fps)
		r.packNs += time.Since(t)

		var got [][]byte
		t = time.Now()
		for _, p := range pkts {
			if got, err = depack.Push(p); err != nil {
				break
			}
		}
		r.depackNs += time.Since(t)
		if err != nil || len(got) != 1 || !bytes.Equal(got[0], ef.Data) {
			return r, fmt.Errorf("replay %s: frame %d did not reassemble (%d frames, err %v)", a.name, k, len(got), err)
		}

		t = time.Now()
		err = dec.Validate(got[0])
		r.valNs += time.Since(t)
		if err != nil {
			r.validateErrors++
		}
	}
	return r, nil
}

// metrics renders the result as replay.<app>.* per-frame figures.
func (r replayResult) metrics(app string) []metric {
	us := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / 1e3 / float64(r.frames)
	}
	p := "replay." + app + "."
	return []metric{
		{p + "scene_next_us", us(r.sceneNs), "us"},
		{p + "encode_us", us(r.encodeNs), "us"},
		{p + "packetize_us", us(r.packNs), "us"},
		{p + "depacketize_us", us(r.depackNs), "us"},
		{p + "validate_us", us(r.valNs), "us"},
		{p + "bytes_per_frame", float64(r.bytes) / float64(r.frames), "bytes"},
	}
}
