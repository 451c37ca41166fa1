package recovery

import (
	"sort"

	"telepresence/internal/rtp"
)

const (
	// recentSlots is the receiver's window of buffered media packets for
	// XOR reconstruction (a power of two; ~400 ms of a 150 pkt/s stream,
	// far wider than any parity group).
	recentSlots = 64
	// maxPendingParity bounds buffered parity packets awaiting more group
	// members.
	maxPendingParity = 8
	// maxMissing bounds the tracked missing set; gaps beyond it count as
	// unrepaired immediately.
	maxMissing = 256
	// maxGapRun is the largest single sequence jump tracked packet by
	// packet; a larger jump is a resync (outage), counted lost in bulk.
	maxGapRun = 128
)

// ReceiverStats counts one receiver-side strategy instance's outcomes. The
// invariant Missed == RepairedRtx + RepairedFec + Unrepaired + outstanding
// holds at all times (outstanding = gaps still within their deadline).
type ReceiverStats struct {
	// Missed counts every sequence number ever detected missing.
	Missed int64
	// RepairedRtx counts missing seqs that later arrived as media — a
	// retransmission answering a NACK, or plain reordering.
	RepairedRtx int64
	// RepairedFec counts missing seqs reconstructed from XOR parity.
	RepairedFec int64
	// Unrepaired counts seqs that expired their deadline unrepaired.
	Unrepaired int64
	// NackSeqs counts seq entries handed out for NACKing (retries
	// included).
	NackSeqs int64
	// Dups counts duplicate or stale arrivals (already received, already
	// repaired, or past the tracking horizon).
	Dups int64
	// ParityReceived / ParityUnusable count parity packets seen and parity
	// packets dropped as unusable (corrupt length or failed validation).
	ParityReceived, ParityUnusable int64
	// RepairDelaysMs are the per-repair delays from first-missed to
	// repair, in arrival order (RTX and FEC repairs both).
	RepairDelaysMs []float64
}

type missState struct {
	firstMs    float64
	lastNackMs float64
	nacks      int
}

type recentSlot struct {
	seq uint16
	ok  bool
	pkt []byte
}

type pendingParity struct {
	base   uint16
	count  int
	lenXor uint16
	data   []byte
	atMs   float64
	ok     bool
}

// Receiver is the receiver half of a strategy for ONE incoming media
// stream: it detects sequence gaps, schedules NACKs (Tick), buffers recent
// packets, and reconstructs singles from parity. Recovered packets are
// returned to the caller for normal depacketizer delivery; the receiver has
// already accounted them, so they must NOT be fed back into OnMedia.
type Receiver struct {
	cfg  Config
	plan Plan

	haveSeq bool
	nextSeq uint16 // one past the highest in-order-tracked seq

	missing map[uint16]*missState
	recent  [recentSlots]recentSlot
	pending [maxPendingParity]pendingParity

	scratch []uint16 // reused NACK/expiry ordering buffer

	stats ReceiverStats
}

// NewReceiver builds the receiver half for the given strategy kind.
func NewReceiver(kind string, cfg Config) (*Receiver, error) {
	plan, err := PlanFor(kind)
	if err != nil {
		return nil, err
	}
	return &Receiver{cfg: cfg.withDefaults(), plan: plan, missing: map[uint16]*missState{}}, nil
}

// Stats returns a snapshot of the receiver counters. The delay slice is
// shared with the receiver: read it only after the session has run.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Outstanding reports gaps still within their deadline (for tests).
func (r *Receiver) Outstanding() int { return len(r.missing) }

// IsLate reports whether seq is behind the in-order tracking point: a
// retransmission answering a NACK, or a reordered duplicate. The session
// layer keeps such arrivals out of the transport report builder, so RTX
// repair delays cannot masquerade as path delay — the congestion controller
// must keep seeing true wire loss and true queueing delay.
func (r *Receiver) IsLate(seq uint16) bool {
	return r.haveSeq && int16(seq-r.nextSeq) < 0
}

// OnMedia ingests one arriving media packet (full RTP bytes). It advances
// gap tracking, buffers the packet for XOR reconstruction, and retries any
// pending parity group the packet belongs to; when that retry reconstructs
// the group's one remaining missing packet, the recovered packet is
// returned (already accounted — deliver it to the depacketizer only).
func (r *Receiver) OnMedia(pkt []byte, nowMs float64) (recovered []byte) {
	var h rtp.Header
	if _, err := h.Unmarshal(pkt); err != nil {
		return nil
	}
	r.markArrived(h.Seq, nowMs)
	r.remember(h.Seq, pkt)
	if !r.plan.FEC {
		return nil
	}
	// The arrival may leave exactly one unknown in a buffered parity group.
	for i := range r.pending {
		p := &r.pending[i]
		if p.ok && inGroup(h.Seq, p.base, p.count) {
			if rec, resolved := r.tryGroup(p.base, p.count, p.lenXor, p.data, nowMs); resolved {
				p.ok = false
				return rec
			}
			return nil // still short by two or more
		}
	}
	return nil
}

// markArrived advances the gap tracker for one arriving seq.
func (r *Receiver) markArrived(seq uint16, nowMs float64) {
	if !r.haveSeq {
		r.haveSeq = true
		r.nextSeq = seq + 1
		return
	}
	switch d := int16(seq - r.nextSeq); {
	case d == 0:
		r.nextSeq = seq + 1
	case d > 0:
		r.openGap(r.nextSeq, int(d), nowMs)
		r.nextSeq = seq + 1
	default:
		if ms, ok := r.missing[seq]; ok {
			delete(r.missing, seq)
			r.stats.RepairedRtx++
			r.stats.RepairDelaysMs = append(r.stats.RepairDelaysMs, nowMs-ms.firstMs)
		} else {
			r.stats.Dups++
		}
	}
}

// openGap records n consecutive seqs starting at first as missing.
func (r *Receiver) openGap(first uint16, n int, nowMs float64) {
	if n > maxGapRun {
		// Resync after an outage: counting 129+ packets as individually
		// NACKable would flood the reverse path for frames long past their
		// deadline.
		r.stats.Missed += int64(n)
		r.stats.Unrepaired += int64(n)
		return
	}
	for i := 0; i < n; i++ {
		r.stats.Missed++
		if len(r.missing) >= maxMissing {
			r.stats.Unrepaired++
			continue
		}
		r.missing[first+uint16(i)] = &missState{firstMs: nowMs}
	}
}

func (r *Receiver) remember(seq uint16, pkt []byte) {
	slot := &r.recent[int(seq)%recentSlots]
	cp := slot.pkt[:0]
	slot.pkt = append(cp, pkt...)
	slot.seq = seq
	slot.ok = true
}

func (r *Receiver) lookup(seq uint16) []byte {
	slot := &r.recent[int(seq)%recentSlots]
	if slot.ok && slot.seq == seq {
		return slot.pkt
	}
	return nil
}

func inGroup(seq, base uint16, count int) bool {
	return int16(seq-base) >= 0 && int(int16(seq-base)) < count
}

// OnParity ingests one arriving parity packet. If all but one group member
// is on hand the missing packet is reconstructed and returned (already
// accounted — deliver it to the depacketizer only); a group still short by
// two or more is buffered and retried as members arrive (OnMedia).
func (r *Receiver) OnParity(b []byte, nowMs float64) (recovered []byte) {
	if !r.plan.FEC {
		return nil
	}
	var p rtp.Parity
	if err := p.Unmarshal(b); err != nil {
		return nil
	}
	r.stats.ParityReceived++
	if len(p.Data) < rtp.HeaderLen {
		r.stats.ParityUnusable++
		return nil
	}
	rec, resolved := r.tryGroup(p.BaseSeq, int(p.Count), p.LenXor, p.Data, nowMs)
	if resolved {
		return rec
	}
	// Buffer for retry: the missing members may still be in flight
	// (jitter reorders a frame's packets around its parity).
	oldest, at := 0, nowMs+1
	for i := range r.pending {
		if !r.pending[i].ok {
			oldest = i
			break
		}
		if r.pending[i].atMs < at {
			oldest, at = i, r.pending[i].atMs
		}
	}
	slot := &r.pending[oldest]
	slot.base, slot.count, slot.lenXor, slot.atMs, slot.ok = p.BaseSeq, int(p.Count), p.LenXor, nowMs, true
	slot.data = append(slot.data[:0], p.Data...)
	return nil
}

// tryGroup attempts XOR reconstruction of the group [base, base+count).
// resolved reports whether the parity is spent (recovered, nothing missing,
// or unusable); !resolved means the group is still short by two or more.
func (r *Receiver) tryGroup(base uint16, count int, lenXor uint16, data []byte, nowMs float64) (recovered []byte, resolved bool) {
	missSeq, unknown := uint16(0), 0
	recLen := lenXor
	for i := 0; i < count; i++ {
		seq := base + uint16(i)
		if pkt := r.lookup(seq); pkt != nil {
			recLen ^= uint16(len(pkt))
		} else {
			missSeq = seq
			unknown++
			if unknown > 1 {
				return nil, false
			}
		}
	}
	if unknown == 0 {
		return nil, true // group fully received; parity spent
	}
	if int(recLen) < rtp.HeaderLen || int(recLen) > len(data) {
		r.stats.ParityUnusable++
		return nil, true
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	for i := 0; i < count; i++ {
		if pkt := r.lookup(base + uint16(i)); pkt != nil {
			for j, b := range pkt {
				buf[j] ^= b
			}
		}
	}
	buf = buf[:recLen]
	var h rtp.Header
	if _, err := h.Unmarshal(buf); err != nil || h.Seq != missSeq {
		r.stats.ParityUnusable++
		return nil, true
	}
	if !r.markFec(missSeq, nowMs) {
		return nil, true // stale group (member evicted or already settled)
	}
	r.remember(missSeq, buf)
	return buf, true
}

// markFec accounts one FEC reconstruction; it reports whether the recovered
// packet is new (worth delivering).
func (r *Receiver) markFec(seq uint16, nowMs float64) bool {
	if ms, ok := r.missing[seq]; ok {
		delete(r.missing, seq)
		r.stats.RepairedFec++
		r.stats.RepairDelaysMs = append(r.stats.RepairDelaysMs, nowMs-ms.firstMs)
		return true
	}
	if !r.haveSeq {
		r.haveSeq = true
		r.nextSeq = seq + 1
		r.stats.Missed++ // a wire loss detected via parity, not via a gap
		r.stats.RepairedFec++
		r.stats.RepairDelaysMs = append(r.stats.RepairDelaysMs, 0)
		return true
	}
	if d := int16(seq - r.nextSeq); d >= 0 {
		// Reconstructed before the gap was even observed (the lost packet
		// was the newest): a wire loss detected via parity, repaired with
		// zero delay.
		r.openGap(r.nextSeq, int(d), nowMs)
		r.nextSeq = seq + 1
		r.stats.Missed++
		r.stats.RepairedFec++
		r.stats.RepairDelaysMs = append(r.stats.RepairDelaysMs, 0)
		return true
	}
	r.stats.Dups++
	return false
}

// Tick expires overdue state and returns the seqs due for a NACK, oldest
// first, appended to into. The session layer calls it from a periodic
// ticker and batches the result into rtp.Nack packets (at most MaxNackSeqs
// per packet). Strategies without NACK still need Tick for deadline
// accounting; they always return an empty list.
func (r *Receiver) Tick(nowMs float64, into []uint16) []uint16 {
	for i := range r.pending {
		if r.pending[i].ok && nowMs-r.pending[i].atMs > r.cfg.NackDeadlineMs {
			r.pending[i].ok = false
		}
	}
	if len(r.missing) == 0 {
		return into
	}
	// Deterministic order: map iteration is randomized, so sort by age in
	// circular seq order (most overdue first).
	r.scratch = r.scratch[:0]
	for seq := range r.missing {
		r.scratch = append(r.scratch, seq)
	}
	next := r.nextSeq
	sort.Slice(r.scratch, func(i, j int) bool {
		return int16(r.scratch[i]-next) < int16(r.scratch[j]-next)
	})
	for _, seq := range r.scratch {
		ms := r.missing[seq]
		age := nowMs - ms.firstMs
		if age >= r.cfg.NackDeadlineMs {
			delete(r.missing, seq)
			r.stats.Unrepaired++
			continue
		}
		if !r.plan.Nack || ms.nacks >= r.cfg.NackRetries {
			continue
		}
		if ms.nacks == 0 {
			if age < r.cfg.NackDelayMs {
				continue // reordering grace
			}
		} else if nowMs-ms.lastNackMs < r.cfg.NackRetryMs {
			continue
		}
		ms.nacks++
		ms.lastNackMs = nowMs
		r.stats.NackSeqs++
		into = append(into, seq)
	}
	return into
}
