package vca

import "telepresence/internal/simtime"

// frameSum is the checksum a sender recorded for one 2D frame, keyed by the
// frame's in-band send stamp.
type frameSum struct {
	sent simtime.Time
	sum  uint32
}

// frameSums is one sender→receiver edge's table of recorded checksums,
// oldest first. Send stamps rise strictly within a stream, so the table is
// sorted by stamp.
//
// The reassembler completes an edge's frames in order, so once a frame
// completes, no older frame on that edge ever will: take drops the
// completed frame's record together with every older one. The table
// therefore holds only the frames in flight plus those lost since the last
// completion.
type frameSums []frameSum

// add records the checksum of the frame sent at sent.
func (t *frameSums) add(sent simtime.Time, sum uint32) {
	*t = append(*t, frameSum{sent: sent, sum: sum})
}

// take returns the checksum recorded for the frame sent at sent, and drops
// that record and every older one. A stamp with no record (a frame
// assembled without its head packet carries a garbage one) misses cleanly
// and drops nothing.
func (t *frameSums) take(sent simtime.Time) (uint32, bool) {
	recs := *t
	for k, r := range recs {
		if r.sent > sent {
			break
		}
		if r.sent == sent {
			// Keep the backing array: the survivors are the few frames
			// still in flight, so this copy is short and add never
			// reallocates in steady state.
			*t = recs[:copy(recs, recs[k+1:])]
			return r.sum, true
		}
	}
	return 0, false
}
