// Package analysis classifies captured traffic the way the paper does:
// QUIC versus RTP (§4.1), strictly from header bytes, since payloads are
// end-to-end encrypted (§5). The capture package calls ClassIndex at each
// tap and measures rates from frame sizes, so classification and
// measurement both happen online, with no packet retained.
package analysis

import (
	"telepresence/internal/quic"
	"telepresence/internal/rtp"
)

// Protocol is the classification result for a packet or flow.
type Protocol int

// Classifications.
const (
	ProtoUnknown Protocol = iota
	ProtoQUIC
	ProtoRTP
)

func (p Protocol) String() string {
	switch p {
	case ProtoQUIC:
		return "QUIC"
	case ProtoRTP:
		return "RTP"
	default:
		return "unknown"
	}
}

// Classify identifies the protocol of a single payload prefix.
func Classify(payload []byte) Protocol {
	switch {
	case rtp.IsRTP(payload):
		return ProtoRTP
	case quic.IsQUIC(payload):
		return ProtoQUIC
	default:
		return ProtoUnknown
	}
}

// ClassIndex adapts Classify to the capture package's streaming Classifier
// signature, so protocol counting happens online at the tap with no payload
// retention.
func ClassIndex(payload []byte) int { return int(Classify(payload)) }
