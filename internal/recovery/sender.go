package recovery

import (
	"fmt"

	"telepresence/internal/rtp"
)

// SenderStats counts one sender-side strategy instance's work.
type SenderStats struct {
	// MediaPackets / MediaBytes count the protected media stream.
	MediaPackets, MediaBytes int64
	// ParityPackets / ParityBytes count emitted FEC parity (wire bytes).
	ParityPackets, ParityBytes int64
	// RtxPackets / RtxBytes count retransmissions answered from the cache.
	RtxPackets, RtxBytes int64
	// NacksReceived counts NACK packets processed.
	NacksReceived int64
	// CacheMisses counts NACK'd seqs no longer (or never) in the cache.
	CacheMisses int64
	// GroupLen is the parity group length currently in effect.
	GroupLen int
}

// Sender is the sender half of a strategy: it owns the retransmit cache and
// the parity group accumulator for ONE outgoing media stream. Feed every
// outgoing media packet to OnPacket; hand arriving NACKs to OnNack and
// receiver-report loss fractions to OnReportLoss.
type Sender struct {
	cfg  Config
	plan Plan

	// Retransmit cache: a ring keyed seq % CachePackets. Entries own their
	// copies; a cached slice handed out by OnNack is never mutated again
	// (eviction allocates a fresh copy), so in-flight retransmissions stay
	// intact.
	cache []cacheEntry

	// Parity accumulator over the current group.
	groupLen  int // in effect for the current group
	nextLen   int // applied at the next group boundary (hybrid adaptation)
	parity    []byte
	parityLen int // length of the longest packet in the group
	lenXor    uint16
	baseSeq   uint16
	count     int

	lossEwma float64 // smoothed report loss fraction (hybrid)

	// Budget-window state: snapshots of the byte counters at the previous
	// BudgetOverheadRatio call, and the smoothed interval ratio.
	lastMediaB, lastRedB int64
	budgetEwma           float64

	stats SenderStats
}

type cacheEntry struct {
	seq     uint16
	pkt     []byte
	resends int
	ok      bool
}

// NewSender builds the sender half for the given strategy kind.
func NewSender(kind string, cfg Config) (*Sender, error) {
	plan, err := PlanFor(kind)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Sender{cfg: cfg, plan: plan, groupLen: cfg.GroupLen, nextLen: cfg.GroupLen}
	if plan.Nack {
		s.cache = make([]cacheEntry, cfg.CachePackets)
	}
	return s, nil
}

// Stats returns a snapshot of the sender counters.
func (s *Sender) Stats() SenderStats {
	st := s.stats
	st.GroupLen = s.groupLen
	return st
}

// LossEwma reports the smoothed report-loss fraction driving hybrid's
// redundancy adaptation (0 for non-adaptive strategies) — a telemetry
// gauge.
func (s *Sender) LossEwma() float64 { return s.lossEwma }

// OverheadRatio is the redundancy the strategy has added over the whole
// session, as a fraction of the protected media bytes: (parity +
// retransmissions) / media — the reporting metric the experiment rows use.
func (s *Sender) OverheadRatio() float64 {
	if s.stats.MediaBytes == 0 {
		return 0
	}
	return float64(s.stats.ParityBytes+s.stats.RtxBytes) / float64(s.stats.MediaBytes)
}

// BudgetOverheadRatio is the charging metric: the redundancy ratio over
// recent feedback intervals (an EWMA of per-call deltas), not the session
// lifetime. Call it once per feedback arrival — it advances the window. A
// session whose loss episode ends stops paying for it within a few report
// intervals, and one whose episode starts is charged just as quickly,
// where the lifetime average would lag both ways.
func (s *Sender) BudgetOverheadRatio() float64 {
	red := s.stats.ParityBytes + s.stats.RtxBytes
	dm, dr := s.stats.MediaBytes-s.lastMediaB, red-s.lastRedB
	s.lastMediaB, s.lastRedB = s.stats.MediaBytes, red
	if dm > 0 {
		s.budgetEwma += (float64(dr)/float64(dm) - s.budgetEwma) / 4
	}
	return s.budgetEwma
}

// ChargedOverheadRatio returns what the last BudgetOverheadRatio call
// returned, without advancing the window.
func (s *Sender) ChargedOverheadRatio() float64 { return s.budgetEwma }

// OnPacket ingests one outgoing media packet (a full RTP packet: header and
// payload). It caches a copy for retransmission and advances the parity
// group; when the group completes it returns the marshaled parity packet to
// transmit (nil otherwise). The returned buffer is freshly allocated and
// owned by the caller. Packets must be fed in send order; a sequence
// discontinuity restarts the parity group.
func (s *Sender) OnPacket(pkt []byte) []byte {
	var h rtp.Header
	if _, err := h.Unmarshal(pkt); err != nil {
		return nil
	}
	s.stats.MediaPackets++
	s.stats.MediaBytes += int64(len(pkt))

	if s.plan.Nack {
		slot := &s.cache[int(h.Seq)%len(s.cache)]
		// Allocate a fresh copy instead of reusing the evicted buffer: the
		// old slice may still be in flight as a retransmission.
		cp := make([]byte, len(pkt))
		copy(cp, pkt)
		*slot = cacheEntry{seq: h.Seq, pkt: cp, ok: true}
	}

	if !s.plan.FEC {
		return nil
	}
	if s.count > 0 && h.Seq != s.baseSeq+uint16(s.count) {
		s.resetGroup() // discontinuity: abandon the partial group
	}
	if s.count == 0 {
		s.baseSeq = h.Seq
		s.groupLen = s.nextLen // adaptation applies at group boundaries
	}
	if len(pkt) > s.parityLen {
		if cap(s.parity) < len(pkt) {
			grown := make([]byte, len(pkt))
			copy(grown, s.parity[:s.parityLen])
			s.parity = grown
		} else {
			s.parity = s.parity[:len(pkt)]
			for i := s.parityLen; i < len(pkt); i++ {
				s.parity[i] = 0
			}
		}
		s.parityLen = len(pkt)
	}
	for i, b := range pkt {
		s.parity[i] ^= b
	}
	s.lenXor ^= uint16(len(pkt))
	s.count++
	if s.count < s.groupLen {
		return nil
	}
	p := rtp.Parity{
		SSRC:    h.SSRC,
		BaseSeq: s.baseSeq,
		Count:   uint8(s.count),
		LenXor:  s.lenXor,
		Data:    s.parity[:s.parityLen],
	}
	wire := p.Marshal(make([]byte, 0, rtp.ParityHeaderLen+s.parityLen))
	s.resetGroup()
	s.stats.ParityPackets++
	s.stats.ParityBytes += int64(len(wire))
	return wire
}

func (s *Sender) resetGroup() {
	for i := 0; i < s.parityLen; i++ {
		s.parity[i] = 0
	}
	s.parityLen = 0
	s.lenXor = 0
	s.count = 0
	s.groupLen = s.nextLen
}

// OnNack answers one NACK: the cached packets to retransmit, oldest
// requested first (the NACK's own order). Returned slices are owned by the
// cache and must not be mutated; each seq is retransmitted at most
// NackRetries times. Requests for evicted or never-sent seqs count as cache
// misses and are skipped.
func (s *Sender) OnNack(n *rtp.Nack) [][]byte {
	if !s.plan.Nack {
		return nil
	}
	s.stats.NacksReceived++
	var out [][]byte
	for _, seq := range n.Seqs {
		slot := &s.cache[int(seq)%len(s.cache)]
		if !slot.ok || slot.seq != seq {
			s.stats.CacheMisses++
			continue
		}
		if slot.resends >= s.cfg.NackRetries {
			continue
		}
		slot.resends++
		out = append(out, slot.pkt)
		s.stats.RtxPackets++
		s.stats.RtxBytes += int64(len(slot.pkt))
	}
	return out
}

// OnReportLoss feeds one receiver-report loss fraction to hybrid's
// redundancy adaptation: the parity ratio targets 1.5x the smoothed loss,
// clamped to [1/MaxGroupLen, 1/MinGroupLen], and the group length applies
// at the next group boundary. Non-adaptive strategies ignore it.
func (s *Sender) OnReportLoss(fractionLost float64) {
	if !s.plan.Adaptive {
		return
	}
	if fractionLost < 0 {
		fractionLost = 0
	} else if fractionLost > 1 {
		fractionLost = 1
	}
	s.lossEwma += (fractionLost - s.lossEwma) / 8
	ratio := 1.5 * s.lossEwma
	k := s.cfg.MaxGroupLen
	if ratio > 0 {
		k = int(1/ratio + 0.5)
	}
	if k < s.cfg.MinGroupLen {
		k = s.cfg.MinGroupLen
	}
	if k > s.cfg.MaxGroupLen {
		k = s.cfg.MaxGroupLen
	}
	s.nextLen = k
}

// String renders the sender state for diagnostics.
func (s *Sender) String() string {
	return fmt.Sprintf("recovery.Sender{group %d/%d, media %d, parity %d, rtx %d}",
		s.count, s.groupLen, s.stats.MediaPackets, s.stats.ParityPackets, s.stats.RtxPackets)
}
