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
	// does not allocate. pool marks packets eligible for recycling via
	// Network.ReleasePacket, and those that own their payload's array
	// (PooledClone); it is cleared while the packet sits on the freelist
	// to catch double releases.
	outerStore Encap
	pool       poolState
}

// poolState is where a packet came from, and what its release gives
// back: one byte, so that ReleasePacket's common case tests one value.
type poolState uint8

const (
	unpooled     poolState = iota // not from the pool, or released
	pooled                        // from AllocPacket
	pooledOwning                  // pooled, and owning its payload's pool array
)

// Pooled reports whether the packet came from the network's packet pool
// and may therefore be mutated in place (the holder owns it) and must
// eventually be released or re-sent.
func (p *Packet) Pooled() bool { return p.pool != unpooled }

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
	q.pool = unpooled
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	if p.Outer != nil {
		q.outerStore = *p.Outer
		q.Outer = &q.outerStore
	}
	return &q
}

// MovePayload passes the payload array p owns (PooledClone) to q when q
// carries it in place, its payload starting where p's does: a relay that
// forwards the bytes of p in a new segment hands the array on with them,
// and it goes back to the pool when q is released instead of p.
func (p *Packet) MovePayload(q *Packet) {
	if p.pool == pooledOwning && q.pool == pooled && len(q.Payload) > 0 && len(p.Payload) > 0 && &q.Payload[0] == &p.Payload[0] {
		p.pool, q.pool = pooled, pooledOwning
	}
}

// KeepPayload is what a consumer that keeps p's payload past p's release
// calls (a TCP endpoint parking an out-of-order segment): an array p
// owned is then left to the keeper and the collector, not given back to
// the pool while it is still read.
func (p *Packet) KeepPayload() {
	if p.pool == pooledOwning {
		p.pool = pooled
	}
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
