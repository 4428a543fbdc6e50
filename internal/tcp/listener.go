package tcp

import (
	"repro/internal/netsim"
)

// AcceptFunc is invoked for each new inbound connection, before the
// handshake completes, and returns the callbacks to attach to it. Return
// zero Callbacks to accept silently; the Accept decision itself cannot be
// refused (use a RST responder on the host for closed ports).
type AcceptFunc func(c *Conn) Callbacks

// Listener accepts passive connections on one port of a host.
type Listener struct {
	host   *netsim.Host
	port   uint16
	cfg    Config
	accept AcceptFunc
	closed bool
}

// Listen starts accepting connections on port.
func Listen(h *netsim.Host, port uint16, accept AcceptFunc, cfg Config) *Listener {
	l := &Listener{host: h, port: port, cfg: cfg, accept: accept}
	h.Listen(port, l)
	return l
}

// Close stops accepting new connections. Established connections are
// unaffected.
func (l *Listener) Close() {
	if !l.closed {
		l.closed = true
		l.host.Unlisten(l.port)
	}
}

// HandleSegment implements netsim.PortHandler for segments that match no
// established connection. The listener is the packet's terminal
// consumer and releases it on return.
func (l *Listener) HandleSegment(pkt *netsim.Packet) {
	l.handleSegment(pkt)
	l.host.Network().ReleasePacket(pkt)
}

func (l *Listener) handleSegment(pkt *netsim.Packet) {
	if l.closed {
		return
	}
	if !pkt.Flags.Has(netsim.FlagSYN) || pkt.Flags.Has(netsim.FlagACK) {
		// Non-SYN to a listener: the connection it belonged to is gone.
		// Answer with RST so the peer aborts quickly (unless it *is* a RST).
		if !pkt.Flags.Has(netsim.FlagRST) {
			sendRST(l.host.Network(), pkt)
		}
		return
	}
	c := newConn(l.host, pkt.Dst, pkt.Src, Callbacks{}, l.cfg)
	c.state = StateSynReceived
	if l.cfg.ISNKey != 0 {
		c.iss = DeterministicISN(l.cfg.ISNKey, c.local, c.remote)
	} else {
		c.iss = l.host.Network().Rand().Uint32()
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.bufSeq = c.iss + 1
	c.rcvNxt = pkt.Seq + 1
	c.cb = l.accept(c)
	l.host.RegisterBatch(pkt.Dst.Port, pkt.Src, c)
	c.sendSegment(netsim.FlagSYN|netsim.FlagACK, c.iss, c.rcvNxt, nil)
	c.armRtx(synRTO)
}

// sendRST answers pkt with a RST+ACK using a pooled packet.
func sendRST(n *netsim.Network, pkt *netsim.Packet) {
	rst := n.AllocPacket()
	rst.Src, rst.Dst = pkt.Dst, pkt.Src
	rst.Flags = netsim.FlagRST | netsim.FlagACK
	rst.Seq, rst.Ack = pkt.Ack, pkt.SeqEnd()
	n.Send(rst)
}
