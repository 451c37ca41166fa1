package video

import (
	"fmt"

	"telepresence/internal/idle"
)

// Source is a scene paired with the encoder that codes it: a sender's
// camera and codec. It codes one frame ahead. Once Next has returned frame
// k and run k's rate step, an idle coder goroutine renders frame k+1 and
// codes it while the caller sends frame k; if no coder is idle, the next
// Next renders and codes inline (the coders are the idle package's pool,
// shared with semantic.Source). Frame k+1's bytes depend only on the
// scene's state and on the encoder's reference, frame counter and
// quantizer, and all of those are fixed once k's rate step has run. The
// rate step itself, the only reader of the rate target, runs on the caller
// inside Next. So which goroutine codes a frame changes no byte, and a
// Source's frames are those of Encode(scene.Next()) called in the same
// order with the same SetTargetBps calls between them.
//
// The Source owns its scene and encoder: after NewSource, call neither's
// Next or Encode directly.
type Source struct {
	scene *Scene
	enc   *Encoder
	left  int           // frames the caller will still ask for; none is coded past them
	ahead bool          // a coder owns the scene and encoder until done delivers
	done  chan struct{} // capacity 1: a coder's finished frame
	coded *EncodedFrame // the frame the coder delivered
}

// sourceJob is a Source as the idle pool sees it: Run renders and codes
// the next frame, then signals done. The conversion keeps Run off Source's
// API and costs no allocation.
type sourceJob Source

func (j *sourceJob) Run() {
	j.coded = j.enc.code(j.scene.Next())
	j.done <- struct{}{}
}

// NewSource pairs scene with enc, whose configured dimensions must match.
// frames is how many frames the caller will ask for (a session's frame
// ticks): the Next that returns the last of them codes nothing ahead.
// Calling Next past it still works, one inline frame per call.
func NewSource(scene *Scene, enc *Encoder, frames int) (*Source, error) {
	if scene.W != enc.cfg.W || scene.H != enc.cfg.H {
		return nil, fmt.Errorf("video: scene %dx%d vs config %dx%d", scene.W, scene.H, enc.cfg.W, enc.cfg.H)
	}
	return &Source{scene: scene, enc: enc, left: frames, done: make(chan struct{}, 1)}, nil
}

// Next returns the following coded frame. Like Encode's, the returned
// EncodedFrame is owned by the encoder and valid until the next call to
// Next; copy what must outlive it. Before returning, Next runs the frame's
// rate step with the current target and offers the next frame to an idle
// coder.
func (s *Source) Next() *EncodedFrame {
	var ef *EncodedFrame
	if s.ahead {
		<-s.done
		ef = s.coded
	} else {
		ef = s.enc.code(s.scene.Next())
	}
	s.enc.adaptRate(len(ef.Data))
	s.left--
	s.ahead = false
	if s.left > 0 {
		s.ahead = idle.Offer((*sourceJob)(s))
	}
	return ef
}

// SetTargetBps retargets the encoder's rate controller. Between Next calls
// it acts on the next rate step, exactly as between Encode calls, even
// while the next frame is being coded ahead.
func (s *Source) SetTargetBps(bps float64) { s.enc.SetTargetBps(bps) }

// TargetBps returns the encoder's current rate-control target.
func (s *Source) TargetBps() float64 { return s.enc.TargetBps() }
