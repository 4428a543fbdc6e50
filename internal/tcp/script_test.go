package tcp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
)

// wireRec is one segment the conn under test sent, as the scripted peer
// received it (packets themselves are pooled and must not be retained).
type wireRec struct {
	at       time.Duration
	flags    netsim.TCPFlags
	seq, ack uint32
	payload  int
}

// scripted is a raw port handler standing in for a remote TCP stack, so
// tests can inject arbitrary segments (out of order, no PSH, any window)
// at the conn under test and log its responses.
type scripted struct {
	h   *netsim.Host
	wnd uint32 // the window every injected segment advertises
	out []wireRec
}

func (s *scripted) HandleSegment(pkt *netsim.Packet) {
	s.out = append(s.out, wireRec{
		at: s.h.Network().Now(), flags: pkt.Flags, seq: pkt.Seq, ack: pkt.Ack, payload: len(pkt.Payload),
	})
	s.h.Network().ReleasePacket(pkt)
}

func (s *scripted) send(dst netsim.HostPort, flags netsim.TCPFlags, seq, ack uint32, payload []byte) {
	n := s.h.Network()
	pkt := n.AllocPacket()
	pkt.Src = netsim.HostPort{IP: s.h.IP(), Port: 80}
	pkt.Dst = dst
	pkt.Flags, pkt.Seq, pkt.Ack = flags, seq, ack
	pkt.Window = s.wnd
	pkt.Payload = payload
	n.Send(pkt)
}

// peerISN is the scripted peer's initial sequence number: its first data
// byte is peerISN+1.
const peerISN = 5000

// newScriptedConn dials a conn (with cfg) against a scripted peer over
// 1ms links and completes the handshake (established at t=3ms). The
// peer's log is cleared before returning at t=4ms.
func newScriptedConn(t *testing.T, cfg Config) (*netsim.Network, *Conn, *scripted) {
	t.Helper()
	n := netsim.New(1)
	n.PoisonReleasedBufs()
	n.SetLatency(func(netsim.IP, netsim.IP) time.Duration { return time.Millisecond })
	ch := netsim.NewHost(n, clientIP)
	sh := netsim.NewHost(n, serverIP)
	sc := &scripted{h: sh, wnd: 1 << 20}
	sh.Listen(80, sc)
	c := Dial(ch, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{}, cfg)
	n.RunFor(2 * time.Millisecond)
	if len(sc.out) != 1 || !sc.out[0].flags.Has(netsim.FlagSYN) {
		t.Fatalf("expected SYN, got %v", sc.out)
	}
	sc.send(c.LocalAddr(), netsim.FlagSYN|netsim.FlagACK, peerISN, c.ISN()+1, nil)
	n.RunFor(2 * time.Millisecond)
	if c.State() != StateEstablished {
		t.Fatalf("conn state %v after handshake", c.State())
	}
	sc.out = sc.out[:0]
	return n, c, sc
}

// The five TestDelayedAck* tests keep their names from when delayed ACKs
// were an option. With the option gone, each pins the immediate ACK that
// replaced the deferral it used to test: every data segment and every
// FIN draws a bare ACK the instant it arrives.

// wantAcks fails unless the conn sent exactly one bare ACK per entry of
// want, in order, each reaching the scripted peer at 6ms (segments sent
// at 4ms arrive at 5ms, their ACKs 1ms later).
func wantAcks(t *testing.T, sc *scripted, want ...uint32) {
	t.Helper()
	if len(sc.out) != len(want) {
		t.Fatalf("conn sent %v, want %d ACKs", sc.out, len(want))
	}
	for i, r := range sc.out {
		if r.flags != netsim.FlagACK || r.payload != 0 || r.ack != want[i] || r.at != 6*time.Millisecond {
			t.Fatalf("segment %d = %+v, want a bare ACK of %d at 6ms", i, r, want[i])
		}
	}
}

// serverAcks logs when each bare ACK the server host sends is delivered.
func serverAcks(n *netsim.Network) *[]time.Duration {
	at := &[]time.Duration{}
	n.SetTracer(func(ev netsim.TraceEvent) {
		p := ev.Packet
		if !ev.Dropped && p.Src.IP == serverIP && p.Flags == netsim.FlagACK && len(p.Payload) == 0 {
			*at = append(*at, ev.At)
		}
	})
	return at
}

// TestDelayedAckElidesAlternateAcks: no ACK is elided — a 4-MSS burst
// draws 4 bare ACKs from the receiver, one per segment, and its bytes
// arrive intact.
func TestDelayedAckElidesAlternateAcks(t *testing.T) {
	p := newPair(1)
	acks := serverAcks(p.net)
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{OnData: func(c *Conn, d []byte) { got.Write(d) }}
	}, DefaultConfig())
	payload := bytes.Repeat([]byte("x"), 4*1460)
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { c.Write(payload) },
	}, DefaultConfig())
	p.net.RunUntilIdle(100000)
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("server got %d bytes, want %d", got.Len(), len(payload))
	}
	if len(*acks) != 4 {
		t.Fatalf("server sent %d bare ACKs, want 4", len(*acks))
	}
}

// TestDelayedAckPshBoundaryImmediate: a single-segment request sees
// exactly one prompt ACK and no retransmit from the sender.
func TestDelayedAckPshBoundaryImmediate(t *testing.T) {
	p := newPair(1)
	acks := serverAcks(p.net)
	Listen(p.server, 80, func(c *Conn) Callbacks { return Callbacks{} }, DefaultConfig())
	cl := Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { c.Write(bytes.Repeat([]byte("a"), 1460)) },
	}, DefaultConfig())
	p.net.RunUntilIdle(100000)
	if cl.Retransmits != 0 {
		t.Fatalf("client retransmitted %d times", cl.Retransmits)
	}
	// 30ms WAN hops put the handshake at 60ms, data at the server at
	// 90ms, and the immediate ACK back at the client at 120ms.
	if len(*acks) != 1 || (*acks)[0] > 130*time.Millisecond {
		t.Fatalf("server bare ACKs delivered at %v, want one by 130ms", *acks)
	}
}

// TestDelayedAckSecondSegmentImmediate: two in-order segments without
// PSH draw two ACKs, the first not held back for the second.
func TestDelayedAckSecondSegmentImmediate(t *testing.T) {
	n, c, sc := newScriptedConn(t, DefaultConfig())
	data := bytes.Repeat([]byte("d"), 1460)
	seq := uint32(peerISN + 1)
	sc.send(c.LocalAddr(), netsim.FlagACK, seq, c.ISN()+1, data)
	sc.send(c.LocalAddr(), netsim.FlagACK, seq+1460, c.ISN()+1, data)
	n.RunFor(10 * time.Millisecond)
	wantAcks(t, sc, seq+1460, seq+2*1460)
}

// TestDelayedAckOutOfOrderImmediate: an out-of-order segment draws the
// duplicate ACK the sender's recovery needs, and the segment that fills
// the hole draws a cumulative ACK past both.
func TestDelayedAckOutOfOrderImmediate(t *testing.T) {
	n, c, sc := newScriptedConn(t, DefaultConfig())
	data := bytes.Repeat([]byte("d"), 1460)
	seq := uint32(peerISN + 1)
	sc.send(c.LocalAddr(), netsim.FlagACK, seq+1460, c.ISN()+1, data)
	sc.send(c.LocalAddr(), netsim.FlagACK|netsim.FlagPSH, seq, c.ISN()+1, data)
	n.RunFor(10 * time.Millisecond)
	wantAcks(t, sc, seq, seq+2*1460)
}

// TestDelayedAckFinImmediate: a data segment and the FIN behind it each
// draw an ACK at once, so teardown is never stretched.
func TestDelayedAckFinImmediate(t *testing.T) {
	n, c, sc := newScriptedConn(t, DefaultConfig())
	data := bytes.Repeat([]byte("d"), 1460)
	seq := uint32(peerISN + 1)
	sc.send(c.LocalAddr(), netsim.FlagACK, seq, c.ISN()+1, data)
	sc.send(c.LocalAddr(), netsim.FlagFIN|netsim.FlagACK, seq+1460, c.ISN()+1, nil)
	n.RunFor(10 * time.Millisecond)
	wantAcks(t, sc, seq+1460, seq+1460+1)
}

// TestRetransmitStopsAtSndNxt: a peer window under one MSS cuts the first
// transmission short, and its retransmit must stop where it stopped.
// Bytes past sndNxt would draw an ACK that processAck rejects as out of
// range, every time, and the connection would time out with the peer
// holding every byte.
func TestRetransmitStopsAtSndNxt(t *testing.T) {
	n, c, sc := newScriptedConn(t, DefaultConfig())
	sc.wnd = 100
	sc.send(c.LocalAddr(), netsim.FlagACK, peerISN+1, c.ISN()+1, nil) // window update
	n.RunFor(2 * time.Millisecond)
	c.Write(make([]byte, 1000))
	n.RunFor(2 * time.Millisecond)
	if len(sc.out) != 1 || sc.out[0].payload != 100 {
		t.Fatalf("first transmission %v, want one 100-byte segment", sc.out)
	}
	// The peer holds its ACK until the retransmit arrives.
	sc.out = sc.out[:0]
	n.RunFor(300 * time.Millisecond)
	if len(sc.out) != 1 || sc.out[0].seq != c.ISN()+1 || sc.out[0].payload != 100 {
		t.Fatalf("retransmit %+v, want 100 bytes at seq %d", sc.out, c.ISN()+1)
	}
	sc.send(c.LocalAddr(), netsim.FlagACK, peerISN+1, sc.out[0].seq+uint32(sc.out[0].payload), nil)
	n.RunFor(2 * time.Millisecond)
	if acked := c.sndUna - c.ISN() - 1; acked != 100 {
		t.Fatalf("the peer acknowledged the retransmit; the conn counts %d bytes acknowledged, want 100", acked)
	}
}

// TestIdleProbe: an established connection with nothing in flight sends
// one bare ACK (seq=sndNxt, ack=rcvNxt) per IdleProbe period; with data
// in flight it sends none, and once closed it sends none and leaves no
// timer behind.
func TestIdleProbe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleProbe = 25 * time.Millisecond
	n, c, sc := newScriptedConn(t, cfg)
	// Armed at the t=3ms establish: probes leave at 28, 53 and 78ms.
	n.Run(80 * time.Millisecond)
	if len(sc.out) != 3 {
		t.Fatalf("idle for 77ms: %v, want 3 probes", sc.out)
	}
	for i, r := range sc.out {
		at := time.Duration(29+25*i) * time.Millisecond
		if r.flags != netsim.FlagACK || r.payload != 0 || r.seq != c.ISN()+1 || r.ack != peerISN+1 || r.at != at {
			t.Fatalf("probe %d = %+v, want a bare ACK arriving at %v", i, r, at)
		}
	}

	// One byte in flight, its ACK held by the peer: no probe.
	sc.out = sc.out[:0]
	c.Write([]byte("x"))
	n.Run(200 * time.Millisecond)
	if len(sc.out) != 1 || sc.out[0].payload != 1 {
		t.Fatalf("with data in flight: %v, want the data segment alone", sc.out)
	}
	sc.send(c.LocalAddr(), netsim.FlagACK, peerISN+1, c.ISN()+2, nil) // arrives at 201ms
	sc.out = sc.out[:0]
	n.Run(230 * time.Millisecond) // idle again: probes leave at 203 and 228ms
	if len(sc.out) != 2 {
		t.Fatalf("idle again: %v, want 2 probes", sc.out)
	}

	sc.out = sc.out[:0]
	c.Abort()
	n.RunFor(100 * time.Millisecond)
	if len(sc.out) != 1 || !sc.out[0].flags.Has(netsim.FlagRST) || n.Pending() != 0 {
		t.Fatalf("after close: %v and %d timers pending, want the RST alone and none", sc.out, n.Pending())
	}
}

// TestOutOfOrderSegmentKeepsItsArray: a segment whose packet owns its
// payload's pool array (a load balancer's relayed parked copy,
// netsim.PooledClone) and arrives out of order is parked by reference, so
// the conn keeps the array (KeepPayload) rather than letting the packet's
// release give it to the pool. Under poison a released array reads 0xDD
// by the time the gap fills.
func TestOutOfOrderSegmentKeepsItsArray(t *testing.T) {
	n, c, sc := newScriptedConn(t, DefaultConfig())
	var got []byte
	c.cb.OnData = func(_ *Conn, d []byte) { got = append(got, d...) }
	first, second := []byte("first-"), []byte("second")
	n.Send(n.PooledClone(&netsim.Packet{
		Src: netsim.HostPort{IP: sc.h.IP(), Port: 80}, Dst: c.LocalAddr(),
		Flags: netsim.FlagACK | netsim.FlagPSH, Seq: peerISN + 1 + uint32(len(first)), Ack: c.ISN() + 1,
		Window: 1 << 20, Payload: second,
	}))
	n.RunFor(2 * time.Millisecond)
	sc.send(c.LocalAddr(), netsim.FlagACK|netsim.FlagPSH, peerISN+1, c.ISN()+1, first)
	n.RunFor(2 * time.Millisecond)
	if want := "first-second"; string(got) != want {
		t.Fatalf("delivered %q, want %q: the parked segment's array went back to the pool", got, want)
	}
}
