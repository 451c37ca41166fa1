package semantic

import (
	"telepresence/internal/idle"
	"telepresence/internal/keypoints"
)

// batchFrames is how many frames one code-ahead job generates and encodes.
// A frame costs about 67 µs, too little to pay for a hand-off each: handing
// frames to the pool one at a time barely raised the spatial workload's
// rows/s and cost far more CPU per row, while a batch of 64 (0.7 s of a
// 90 FPS persona) runs it at nearly twice the rows/s at the same CPU per
// row (DESIGN.md, "Bit-exact kernels").
const batchFrames = 64

// batch is a run of coded wire frames, back to back in one reused buffer.
type batch struct {
	data []byte
	ends []int // ends[i] is where frame i ends in data
}

// Source is a keypoint generator paired with an encoder of its own: a
// spatial sender's capture and codec, the counterpart of video.Source. It
// codes ahead in batches of batchFrames. Once Next has handed out the
// first frame of a batch, it offers "generate and encode the next batch"
// to an idle coder of the idle package's pool, and keeps offering at each
// Next until a coder takes it; if the batch has not been coded by the time
// the caller needs it, Next codes it inline. A frame's bytes depend only on
// the generator's state, so which goroutine codes a batch changes no byte:
// a Source's frames are those of Encode(gen.Next()) called in the same
// order.
//
// The Source owns its generator: after NewSource, do not call its Next
// directly.
type Source struct {
	gen   *keypoints.Generator
	enc   *Encoder
	todo  int           // frames the caller will still take that no batch holds yet
	ahead bool          // a coder owns gen, enc and next until done delivers
	done  chan struct{} // capacity 1: a coder's finished batch
	cur   batch         // the batch Next hands out
	next  batch         // the batch coded ahead
	pos   int           // frames of cur handed out
}

// sourceJob is a Source as the idle pool sees it: Run codes the next
// batch, then signals done. The conversion keeps Run off Source's API and
// costs no allocation.
type sourceJob Source

func (j *sourceJob) Run() {
	(*Source)(j).code(&j.next)
	j.done <- struct{}{}
}

// NewSource pairs gen with a new Encoder. frames is how many frames the caller will
// take by Next (a session's frame ticks): no batch is coded past them, and
// Next past them still works, one inline frame per call. A caller that
// thins its stream with Skip passes 0, so that every frame is coded inline
// at its Next: which frames it sends is decided tick by tick from feedback,
// and a batch coded ahead would spend coder time on frames Skip then
// throws away.
func NewSource(gen *keypoints.Generator, frames int) *Source {
	return &Source{gen: gen, enc: NewEncoder(), todo: frames, done: make(chan struct{}, 1)}
}

// code generates and encodes the next batch into b: batchFrames frames, or
// what is left of the caller's frames, or one frame past them.
func (s *Source) code(b *batch) {
	n := min(batchFrames, s.todo)
	s.todo -= n
	n = max(n, 1)
	b.data, b.ends = b.data[:0], b.ends[:0]
	for i := 0; i < n; i++ {
		f := s.gen.Next()
		b.data = s.enc.AppendEncode(b.data, &f)
		b.ends = append(b.ends, len(b.data))
	}
}

// Next returns the following wire frame. It is owned by the source and
// valid until the next call to Next; copy what must outlive it.
func (s *Source) Next() []byte {
	if s.pos == len(s.cur.ends) {
		if s.ahead {
			<-s.done
			s.ahead = false
		} else {
			s.code(&s.next)
		}
		s.cur, s.next = s.next, s.cur
		s.pos = 0
	}
	if !s.ahead && s.todo > 0 {
		s.ahead = idle.Offer((*sourceJob)(s))
	}
	start := 0
	if s.pos > 0 {
		start = s.cur.ends[s.pos-1]
	}
	s.pos++
	return s.cur.data[start:s.cur.ends[s.pos-1]]
}

// Skip advances the generator past one frame without coding it: the
// motion goes on while a thinning sender sends nothing. Only a source
// that codes inline (told 0 frames, or past its frames with none left
// coded) may skip; Skip panics on one holding coded frames.
func (s *Source) Skip() {
	if s.ahead || s.todo > 0 || s.pos < len(s.cur.ends) {
		panic("semantic: Skip on a source that codes ahead")
	}
	s.gen.Next()
}
