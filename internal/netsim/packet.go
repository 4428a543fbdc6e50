package netsim

import (
	"fmt"
	"strings"
)

// TCPFlags is the set of TCP control bits carried by a segment.
type TCPFlags uint8

const (
	FlagSYN TCPFlags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
	FlagPSH
)

// Has reports whether every flag in f is set.
func (fl TCPFlags) Has(f TCPFlags) bool { return fl&f == f }

func (fl TCPFlags) String() string {
	var parts []string
	if fl.Has(FlagSYN) {
		parts = append(parts, "SYN")
	}
	if fl.Has(FlagACK) {
		parts = append(parts, "ACK")
	}
	if fl.Has(FlagFIN) {
		parts = append(parts, "FIN")
	}
	if fl.Has(FlagRST) {
		parts = append(parts, "RST")
	}
	if fl.Has(FlagPSH) {
		parts = append(parts, "PSH")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

// Encap is an IP-in-IP outer header, used by the L4 load balancer to
// forward VIP traffic to a particular instance without rewriting the
// inner addresses (as Ananta does).
type Encap struct {
	Src, Dst IP
}

// Packet is a TCP/IP segment in flight. Packets are treated as immutable
// once sent. A pooled packet (from Network.AllocPacket) is owned by
// whoever holds it: the final receiver either releases it back to the
// pool or mutates headers in place and re-Sends it, transferring
// ownership. Non-pooled packets must never be mutated after Send.
type Packet struct {
	Src, Dst HostPort
	Flags    TCPFlags
	Seq, Ack uint32
	Window   uint32
	Payload  []byte

	// Outer, when non-nil, is an IP-in-IP encapsulation header. Routing
	// uses Outer.Dst; the receiver decapsulates and sees the inner packet.
	Outer *Encap

	// outerStore backs Outer for pooled packets so encapsulating a packet
	// does not allocate. pooled marks packets eligible for recycling via
	// Network.ReleasePacket; it is cleared while the packet sits on the
	// freelist to catch double releases.
	outerStore Encap
	pooled     bool
}

// Pooled reports whether the packet came from the network's packet pool
// and may therefore be mutated in place (the holder owns it) and must
// eventually be released or re-sent.
func (p *Packet) Pooled() bool { return p.pooled }

// SetOuter encapsulates the packet, storing the outer header inline to
// avoid an allocation.
func (p *Packet) SetOuter(src, dst IP) {
	p.outerStore = Encap{Src: src, Dst: dst}
	p.Outer = &p.outerStore
}

// Clone returns a deep copy of the packet, safe to mutate. The copy is
// not pooled and is never recycled.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pooled = false
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	if p.Outer != nil {
		q.outerStore = *p.Outer
		q.Outer = &q.outerStore
	}
	return &q
}

// Tuple returns the connection tuple as seen on the wire (inner header).
func (p *Packet) Tuple() FourTuple {
	return FourTuple{Src: p.Src, Dst: p.Dst}
}

// SeqEnd returns the sequence number immediately after this segment's
// data, accounting for the SYN and FIN flags each consuming one unit of
// sequence space.
func (p *Packet) SeqEnd() uint32 {
	end := p.Seq + uint32(len(p.Payload))
	if p.Flags.Has(FlagSYN) {
		end++
	}
	if p.Flags.Has(FlagFIN) {
		end++
	}
	return end
}

func (p *Packet) String() string {
	s := fmt.Sprintf("%s %s seq=%d ack=%d len=%d", p.Tuple(), p.Flags, p.Seq, p.Ack, len(p.Payload))
	if p.Outer != nil {
		s += fmt.Sprintf(" encap(%s->%s)", p.Outer.Src, p.Outer.Dst)
	}
	return s
}
