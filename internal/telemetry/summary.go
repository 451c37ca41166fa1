package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// StreamKey identifies one directed media stream (sender → receiver) by
// participant indices.
type StreamKey struct {
	Sender, Receiver int
}

// LinkSummary aggregates netem events for one named link.
type LinkSummary struct {
	Enqueued, EnqueuedBytes   int64
	Delivered, DeliveredBytes int64
	DropLoss, DropBurst       int64
	DropQueue                 int64
	MaxQueueBytes             int64
	GEBadEntries              int64
}

// SenderSummary aggregates sender-side events for one participant.
type SenderSummary struct {
	FramesSent, FramesThinned  int64
	FrameBytes                 int64
	RtxPackets, CacheMisses    int64
	ParityPackets              int64
	Reports                    int64
	TargetUpdates              int64
	TargetFirstBps             float64
	TargetLastBps              float64
	TargetMinBps, TargetMaxBps float64
	Reasons                    map[string]int64
}

// StreamSummary aggregates receiver-side events for one directed stream.
type StreamSummary struct {
	FramesDecoded, FramesLive int64
	FramesUndecodable         int64
	FrameTimeouts             int64
	RepairedRtx, RepairedFec  int64
	Unrepaired                int64
	NacksSent, NackSeqs       int64
	LatencySumMs              float64
	// DecodedPerSec is the decoded-frame timeline: each second
	// (floor(t_ms/1000)) in which the stream decoded a frame, ascending,
	// with its count. Seconds with none are left out, so the timeline
	// grows with the trace's lines, not with the time they span.
	DecodedPerSec []SecondCount
}

// SecondCount is one entry of a per-second timeline.
type SecondCount struct {
	Sec, Frames int64
}

// Summary is the reduction of one session trace: per-link packet fates,
// per-sender encode/control activity, and a per-stream receive timeline.
type Summary struct {
	Events          int64
	FirstMs, LastMs float64
	Links           map[string]*LinkSummary
	Senders         map[int]*SenderSummary
	Streams         map[StreamKey]*StreamSummary
}

// UserFrameCounts returns the UserStats-comparable frame/packet counters
// for one participant index: frames sent/thinned as a sender, and frames
// decoded/undecodable plus packets repaired/unrepaired summed over every
// stream it receives. This is the bridge the acceptance test walks: the
// event stream alone must reproduce the session's end-of-run aggregates.
func (s *Summary) UserFrameCounts(user int) (sent, thinned, decoded, undecodable, repaired, unrepaired int64) {
	if sd := s.Senders[user]; sd != nil {
		sent, thinned = sd.FramesSent, sd.FramesThinned
	}
	//vplint:allow maporder(accumulates commutative integer sums; every iteration order yields the same totals)
	for k, st := range s.Streams {
		if k.Receiver != user {
			continue
		}
		decoded += st.FramesDecoded
		undecodable += st.FramesUndecodable
		repaired += st.RepairedRtx + st.RepairedFec
		unrepaired += st.Unrepaired
	}
	return
}

type traceLine struct {
	TMs      float64 `json:"t_ms"`
	Cat      string  `json:"cat"`
	Ev       string  `json:"ev"`
	Link     string  `json:"link"`
	Kind     string  `json:"kind"`
	Reason   string  `json:"reason"`
	Size     int64   `json:"size"`
	Queue    int64   `json:"queue"`
	Sender   int     `json:"sender"`
	Receiver int     `json:"receiver"`
	Seqs     int64   `json:"seqs"`
	Count    int64   `json:"count"`
	Misses   int64   `json:"misses"`
	Bad      bool    `json:"bad"`
	Live     bool    `json:"live"`
	LatMs    float64 `json:"lat_ms"`
	Loss     float64 `json:"loss"`
	Target   float64 `json:"target_bps"`
	Applied  float64 `json:"applied_bps"`
}

// Summarize reads a JSONL trace, validating every line against the event
// schema, and reduces it to a Summary. It fails on the first malformed or
// undeclared line — a trace that does not validate is a bug, not data.
func Summarize(r io.Reader) (*Summary, error) {
	s := &Summary{
		FirstMs: math.NaN(),
		Links:   map[string]*LinkSummary{},
		Senders: map[int]*SenderSummary{},
		Streams: map[StreamKey]*StreamSummary{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if err := ValidateLine(raw); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		var l traceLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		s.add(&l)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if math.IsNaN(s.FirstMs) {
		s.FirstMs = 0
	}
	return s, nil
}

func (s *Summary) add(l *traceLine) {
	s.Events++
	if math.IsNaN(s.FirstMs) {
		s.FirstMs = l.TMs
	}
	if l.TMs > s.LastMs {
		s.LastMs = l.TMs
	}
	switch l.Cat {
	case "netem":
		lk := s.Links[l.Link]
		if lk == nil {
			lk = &LinkSummary{}
			s.Links[l.Link] = lk
		}
		switch l.Ev {
		case "enqueue":
			lk.Enqueued++
			lk.EnqueuedBytes += l.Size
			if l.Queue > lk.MaxQueueBytes {
				lk.MaxQueueBytes = l.Queue
			}
		case "deliver":
			lk.Delivered++
			lk.DeliveredBytes += l.Size
		case "drop":
			switch l.Kind {
			case "burst":
				lk.DropBurst++
			case "queue":
				lk.DropQueue++
			default:
				lk.DropLoss++
			}
		case "ge_state":
			if l.Bad {
				lk.GEBadEntries++
			}
		}
	case "rate":
		sd := s.sender(l.Sender)
		switch l.Ev {
		case "report":
			sd.Reports++
		case "target":
			if sd.TargetUpdates == 0 {
				sd.TargetFirstBps = l.Target
				sd.TargetMinBps, sd.TargetMaxBps = l.Target, l.Target
			}
			sd.TargetUpdates++
			sd.TargetLastBps = l.Target
			sd.TargetMinBps = math.Min(sd.TargetMinBps, l.Target)
			sd.TargetMaxBps = math.Max(sd.TargetMaxBps, l.Target)
			sd.Reasons[l.Reason]++
		}
	case "recovery":
		switch l.Ev {
		case "nack_sent":
			st := s.stream(l.Sender, l.Receiver)
			st.NacksSent++
			st.NackSeqs += l.Seqs
		case "nack_answered":
			sd := s.sender(l.Sender)
			sd.RtxPackets += l.Count
			sd.CacheMisses += l.Misses
		case "parity_sent":
			s.sender(l.Sender).ParityPackets++
		case "repair":
			st := s.stream(l.Sender, l.Receiver)
			if l.Kind == "fec" {
				st.RepairedFec += l.Count
			} else {
				st.RepairedRtx += l.Count
			}
		case "expire":
			s.stream(l.Sender, l.Receiver).Unrepaired += l.Count
		}
	case "vca":
		switch l.Ev {
		case "frame_sent":
			sd := s.sender(l.Sender)
			sd.FramesSent++
			sd.FrameBytes += l.Size
		case "frame_thinned":
			s.sender(l.Sender).FramesThinned++
		case "frame_decoded":
			st := s.stream(l.Sender, l.Receiver)
			st.FramesDecoded++
			st.LatencySumMs += l.LatMs
			if l.Live {
				st.FramesLive++
			}
			st.DecodedPerSec = countSecond(st.DecodedPerSec, int64(l.TMs/1000))
		case "frame_undecodable":
			s.stream(l.Sender, l.Receiver).FramesUndecodable++
		case "frame_timeout":
			s.stream(l.Sender, l.Receiver).FrameTimeouts += l.Count
		}
	}
}

// countSecond adds one to sec's entry of an ascending timeline, inserting
// the entry if it is new.
func countSecond(tl []SecondCount, sec int64) []SecondCount {
	k := sort.Search(len(tl), func(i int) bool { return tl[i].Sec >= sec })
	if k < len(tl) && tl[k].Sec == sec {
		tl[k].Frames++
		return tl
	}
	tl = append(tl, SecondCount{})
	copy(tl[k+1:], tl[k:])
	tl[k] = SecondCount{Sec: sec, Frames: 1}
	return tl
}

func (s *Summary) sender(i int) *SenderSummary {
	sd := s.Senders[i]
	if sd == nil {
		sd = &SenderSummary{Reasons: map[string]int64{}}
		s.Senders[i] = sd
	}
	return sd
}

func (s *Summary) stream(snd, rcv int) *StreamSummary {
	k := StreamKey{snd, rcv}
	st := s.Streams[k]
	if st == nil {
		st = &StreamSummary{}
		s.Streams[k] = st
	}
	return st
}

// WriteReport renders the summary as a deterministic plain-text report:
// trace span, per-link packet fates, per-sender encode/control activity
// (with target-rate envelope and reason mix), and the per-stream timeline.
func (s *Summary) WriteReport(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d events over t=[%.3fms, %.3fms]\n", s.Events, s.FirstMs, s.LastMs)

	if len(s.Links) > 0 {
		sb.WriteString("\nlinks:\n")
		names := make([]string, 0, len(s.Links))
		for n := range s.Links {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			lk := s.Links[n]
			fmt.Fprintf(&sb, "  %-24s enq=%d (%dB) delivered=%d (%dB) drops loss=%d burst=%d queue=%d max_queue=%dB ge_bad=%d\n",
				n, lk.Enqueued, lk.EnqueuedBytes, lk.Delivered, lk.DeliveredBytes,
				lk.DropLoss, lk.DropBurst, lk.DropQueue, lk.MaxQueueBytes, lk.GEBadEntries)
		}
	}

	if len(s.Senders) > 0 {
		sb.WriteString("\nsenders:\n")
		idx := make([]int, 0, len(s.Senders))
		for i := range s.Senders {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			sd := s.Senders[i]
			fmt.Fprintf(&sb, "  u%-3d frames=%d thinned=%d bytes=%d rtx=%d misses=%d parity=%d reports=%d\n",
				i, sd.FramesSent, sd.FramesThinned, sd.FrameBytes,
				sd.RtxPackets, sd.CacheMisses, sd.ParityPackets, sd.Reports)
			if sd.TargetUpdates > 0 {
				fmt.Fprintf(&sb, "       target: updates=%d first=%.0f last=%.0f min=%.0f max=%.0f reasons=%s\n",
					sd.TargetUpdates, sd.TargetFirstBps, sd.TargetLastBps,
					sd.TargetMinBps, sd.TargetMaxBps, reasonMix(sd.Reasons))
			}
		}
	}

	if len(s.Streams) > 0 {
		sb.WriteString("\nstreams (sender->receiver):\n")
		keys := make([]StreamKey, 0, len(s.Streams))
		for k := range s.Streams {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].Sender != keys[b].Sender {
				return keys[a].Sender < keys[b].Sender
			}
			return keys[a].Receiver < keys[b].Receiver
		})
		for _, k := range keys {
			st := s.Streams[k]
			meanLat := 0.0
			if st.FramesDecoded > 0 {
				meanLat = st.LatencySumMs / float64(st.FramesDecoded)
			}
			fmt.Fprintf(&sb, "  u%d->u%d decoded=%d live=%d undecodable=%d timeouts=%d repaired rtx=%d fec=%d unrepaired=%d nacks=%d (%d seqs) mean_lat=%.2fms\n",
				k.Sender, k.Receiver, st.FramesDecoded, st.FramesLive, st.FramesUndecodable,
				st.FrameTimeouts, st.RepairedRtx, st.RepairedFec, st.Unrepaired,
				st.NacksSent, st.NackSeqs, meanLat)
			if len(st.DecodedPerSec) > 0 {
				fmt.Fprintf(&sb, "       decoded/s:")
				for _, c := range st.DecodedPerSec {
					fmt.Fprintf(&sb, " %d:%d", c.Sec, c.Frames)
				}
				sb.WriteByte('\n')
			}
		}
	}

	_, err := io.WriteString(w, sb.String())
	return err
}

func reasonMix(m map[string]int64) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, m[k]))
	}
	return strings.Join(parts, ",")
}
