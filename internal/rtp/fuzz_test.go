package rtp

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzWire feeds arbitrary bytes to the four parsers that share a link (RTP
// Header, ReceiverReport, Nack, Parity). None may panic or allocate more
// than the input's length warrants. Whatever one accepts must marshal back
// to the bytes it read, up to the bits the format ignores, and input that
// one family accepts must classify as that family alone: the property
// TestWireFamiliesDisjoint checks on marshaled packets, here on any bytes.
func FuzzWire(f *testing.F) {
	h := Header{PayloadType: PTGenericVideo, Marker: true, Seq: 7, Timestamp: 90000, SSRC: VideoSSRC(0)}
	rep := ReceiverReport{SSRC: VideoSSRC(1), ExtHighestSeq: 1<<16 + 9, PacketsRecv: 40, PacketsLost: 2,
		FractionLost: 0.05, JitterMs: 3.5, RecvRateBps: 1.2e6, MeanOwdMs: 41, IntervalMs: 200}
	nack := Nack{SSRC: VideoSSRC(2), Seqs: []uint16{3, 4, 65535}}
	par := Parity{SSRC: VideoSSRC(3), BaseSeq: 100, Count: 4, LenXor: 1212, Data: []byte("xor of four packets")}
	for _, b := range [][]byte{
		append(h.Marshal(nil), "payload"...),
		rep.Marshal(nil),
		nack.Marshal(nil),
		par.Marshal(nil),
	} {
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			hdr      Header
			r        ReceiverReport
			n        Nack
			p        Parity
			payload  []byte
			accepted [4]bool
		)
		// Each parser starts from a zero value, so a retried parse cannot
		// reuse the seq list of the one before it.
		parsers := [4]func() error{
			func() (err error) { hdr = Header{}; payload, err = hdr.Unmarshal(data); return err },
			func() error { r = ReceiverReport{}; return r.Unmarshal(data) },
			func() error { n = Nack{}; return n.Unmarshal(data) },
			func() error { p = Parity{}; return p.Unmarshal(data) },
		}
		// A Nack's seq list is the only allocation that grows with the
		// input; an error costs a message of constant size. The fuzz engine
		// allocates concurrently, so a reading over the limit is retried
		// and the smallest of three counts.
		limit := uint64(1024 + 4*len(data))
		for i, parse := range parsers {
			got := ^uint64(0)
			for try := 0; try < 3 && got > limit; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				accepted[i] = parse() == nil
				runtime.ReadMemStats(&after)
				got = min(got, after.TotalAlloc-before.TotalAlloc)
			}
			if got > limit {
				t.Fatalf("parser %d allocated %d bytes on %d bytes of input, want <= %d", i, got, len(data), limit)
			}
		}

		families := 0
		for _, ok := range accepted {
			if ok {
				families++
			}
		}
		if families > 1 {
			t.Fatalf("accepted by %d families (header, report, nack, parity = %v)", families, accepted)
		}
		isRTP, isRep, isNack, isPar := IsRTP(data), IsReport(data), IsNack(data), IsParity(data)
		if isRTP && !accepted[0] {
			t.Fatal("IsRTP input rejected by Header.Unmarshal")
		}

		switch {
		case accepted[0]:
			if isRep || isNack || isPar {
				t.Fatalf("RTP header also classifies as report=%v nack=%v parity=%v", isRep, isNack, isPar)
			}
			// Version 2 is the only first-byte field the header keeps.
			want := append([]byte{2 << 6}, data[1:HeaderLen]...)
			if got := hdr.Marshal(nil); !bytes.Equal(got, want) || !bytes.Equal(payload, data[HeaderLen:]) {
				t.Fatalf("header round trip: got %x + %d payload bytes, want %x + %d", got, len(payload), want, len(data)-HeaderLen)
			}
		case accepted[1]:
			if isRTP || !isRep || isNack || isPar {
				t.Fatalf("report classifies as rtp=%v report=%v nack=%v parity=%v", isRTP, isRep, isNack, isPar)
			}
			// Byte 3 is reserved and written as zero.
			want := append(append([]byte(nil), data[:3]...), 0)
			want = append(want, data[4:ReportLen]...)
			if got := r.Marshal(nil); !bytes.Equal(got, want) {
				t.Fatalf("report round trip: got %x, want %x", got, want)
			}
		case accepted[2]:
			if isRTP || isRep || !isNack || isPar {
				t.Fatalf("nack classifies as rtp=%v report=%v nack=%v parity=%v", isRTP, isRep, isNack, isPar)
			}
			want := data[:nackHeaderLen+2*len(n.Seqs)]
			if got := n.Marshal(nil); !bytes.Equal(got, want) {
				t.Fatalf("nack round trip: got %x, want %x", got, want)
			}
		case accepted[3]:
			if isRTP || isRep || isNack || !isPar {
				t.Fatalf("parity classifies as rtp=%v report=%v nack=%v parity=%v", isRTP, isRep, isNack, isPar)
			}
			if got := p.Marshal(nil); !bytes.Equal(got, data) {
				t.Fatalf("parity round trip: got %x, want %x", got, data)
			}
		}
	})
}
