package packet

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode, which must not panic. An
// accepted datagram's payload is exactly its UDP length's worth of bytes
// following the two headers, inside the input.
func FuzzDecode(f *testing.F) {
	wire := Encode(MustAddr("9.9.9.9"), 1234, MustAddr("8.8.8.8"), 4321, []byte("payload"))
	f.Add(wire)
	f.Add(wire[:IPv4HeaderLen+UDPHeaderLen])
	f.Add(wire[:len(wire)-1])
	f.Add(append(wire, "trailing"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		if d.IP.Protocol != ProtoUDP {
			t.Fatalf("accepted protocol %v", d.IP.Protocol)
		}
		const hdr = IPv4HeaderLen + UDPHeaderLen
		if int(d.UDP.Length) < UDPHeaderLen || len(d.Payload) != int(d.UDP.Length)-UDPHeaderLen {
			t.Fatalf("payload of %d bytes under UDP length %d", len(d.Payload), d.UDP.Length)
		}
		if hdr+len(d.Payload) > len(data) || !bytes.Equal(d.Payload, data[hdr:hdr+len(d.Payload)]) {
			t.Fatalf("payload is not the %d bytes after the headers of a %d-byte input", len(d.Payload), len(data))
		}
	})
}
