package tcp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
)

// wireRec is one delivered packet, snapshotted by the tracer (packets
// themselves are pooled and must not be retained).
type wireRec struct {
	at       time.Duration
	src, dst netsim.HostPort
	flags    netsim.TCPFlags
	payload  int
	ack      uint32
}

func attachWireLog(n *netsim.Network) *[]wireRec {
	log := &[]wireRec{}
	n.SetTracer(func(ev netsim.TraceEvent) {
		if ev.Dropped {
			return
		}
		p := ev.Packet
		*log = append(*log, wireRec{at: ev.At, src: p.Src, dst: p.Dst, flags: p.Flags, payload: len(p.Payload), ack: p.Ack})
	})
	return log
}

func bareAcks(log []wireRec, from netsim.IP) int {
	n := 0
	for _, r := range log {
		if r.src.IP == from && r.flags == netsim.FlagACK && r.payload == 0 {
			n++
		}
	}
	return n
}

// With DelayedAck, a 4-MSS burst ACKs twice (every 2nd segment; the
// last is a PSH boundary and ACKs immediately) instead of 4 times, and
// the elided ACKs are counted. Data delivery is unchanged.
func TestDelayedAckElidesAlternateAcks(t *testing.T) {
	run := func(delack bool) (acks, elided int, got string) {
		cfg := DefaultConfig()
		cfg.DelayedAck = delack
		p := newPair(1)
		log := attachWireLog(p.net)
		var buf bytes.Buffer
		var sconn *Conn
		Listen(p.server, 80, func(c *Conn) Callbacks {
			sconn = c
			return Callbacks{OnData: func(c *Conn, d []byte) { buf.Write(d) }}
		}, cfg)
		payload := bytes.Repeat([]byte("x"), 4*1460)
		Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
			OnEstablished: func(c *Conn) { c.Write(payload) },
		}, DefaultConfig())
		p.net.RunUntilIdle(100000)
		return bareAcks(*log, serverIP), sconn.AcksElided, buf.String()
	}

	acksOff, elidedOff, gotOff := run(false)
	acksOn, elidedOn, gotOn := run(true)
	if gotOff != gotOn || len(gotOn) != 4*1460 {
		t.Fatalf("payload mismatch: off=%d on=%d bytes", len(gotOff), len(gotOn))
	}
	if acksOff != 4 || elidedOff != 0 {
		t.Fatalf("delack off: %d bare ACKs (want 4), %d elided (want 0)", acksOff, elidedOff)
	}
	if acksOn != 2 || elidedOn != 2 {
		t.Fatalf("delack on: %d bare ACKs (want 2), %d elided (want 2)", acksOn, elidedOn)
	}
}

// A PSH boundary ACKs immediately under DelayedAck: a single-segment
// request sees exactly one prompt ACK, no AckDelay stall and no
// retransmit from the sender.
func TestDelayedAckPshBoundaryImmediate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DelayedAck = true
	p := newPair(1)
	log := attachWireLog(p.net)
	var sconn *Conn
	Listen(p.server, 80, func(c *Conn) Callbacks {
		sconn = c
		return Callbacks{}
	}, cfg)
	cl := Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { c.Write(bytes.Repeat([]byte("a"), 1460)) },
	}, DefaultConfig())
	p.net.RunUntilIdle(100000)
	if cl.Retransmits != 0 {
		t.Fatalf("client retransmitted %d times", cl.Retransmits)
	}
	if got := bareAcks(*log, serverIP); got != 1 {
		t.Fatalf("server sent %d bare ACKs, want 1 immediate", got)
	}
	if sconn.AcksElided != 0 {
		t.Fatalf("AcksElided = %d, want 0", sconn.AcksElided)
	}
	// The data ACK must be sent the instant the segment arrives: 30ms WAN
	// hops put the handshake at 60ms, data at the server at 90ms, and the
	// immediate ACK back at the client at 120ms. A deferred ACK would
	// arrive at 160ms.
	for _, r := range *log {
		if r.src.IP == serverIP && r.flags == netsim.FlagACK && r.payload == 0 && r.ack != 0 {
			if r.at > 130*time.Millisecond {
				t.Fatalf("data ACK delivered at %v — stalled by AckDelay", r.at)
			}
		}
	}
}

// scripted is a raw port handler standing in for a remote TCP stack, so
// tests can inject arbitrary segments (out of order, no PSH) at the
// conn under test and log its responses.
type scripted struct {
	h   *netsim.Host
	out []wireRec
}

func (s *scripted) HandleSegment(pkt *netsim.Packet) {
	s.out = append(s.out, wireRec{
		at: s.h.Network().Now(), src: pkt.Src, dst: pkt.Dst,
		flags: pkt.Flags, payload: len(pkt.Payload), ack: pkt.Ack,
	})
	s.h.Network().ReleasePacket(pkt)
}

func (s *scripted) send(dst netsim.HostPort, flags netsim.TCPFlags, seq, ack uint32, payload []byte) {
	n := s.h.Network()
	pkt := n.AllocPacket()
	pkt.Src = netsim.HostPort{IP: s.h.IP(), Port: 80}
	pkt.Dst = dst
	pkt.Flags, pkt.Seq, pkt.Ack = flags, seq, ack
	pkt.Window = 1 << 20
	pkt.Payload = payload
	n.Send(pkt)
}

// newScriptedConn dials a conn (with cfg) against a scripted peer over
// 1ms links and completes the handshake (established at t=3ms, peer ISN
// 5000, so the first in-order data byte is seq 5001). The peer's log is
// cleared before returning at t=4ms.
func newScriptedConn(t *testing.T, cfg Config) (*netsim.Network, *Conn, *scripted) {
	t.Helper()
	n := netsim.New(1)
	n.PoisonReleasedBufs()
	n.SetLatency(func(netsim.IP, netsim.IP) time.Duration { return time.Millisecond })
	ch := netsim.NewHost(n, clientIP)
	sh := netsim.NewHost(n, serverIP)
	sc := &scripted{h: sh}
	sh.Listen(80, sc)
	c := Dial(ch, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{}, cfg)
	n.RunFor(2 * time.Millisecond)
	if len(sc.out) != 1 || !sc.out[0].flags.Has(netsim.FlagSYN) {
		t.Fatalf("expected SYN, got %v", sc.out)
	}
	sc.send(c.LocalAddr(), netsim.FlagSYN|netsim.FlagACK, 5000, c.ISN()+1, nil)
	n.RunFor(2 * time.Millisecond)
	if c.State() != StateEstablished {
		t.Fatalf("conn state %v after handshake", c.State())
	}
	sc.out = sc.out[:0]
	return n, c, sc
}

// An in-order segment without PSH defers its ACK; the AckDelay timer
// flushes it. The flush is a wire ACK, not an elision.
func TestDelayedAckDeferThenTimerFlush(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DelayedAck = true
	cfg.AckDelay = 40 * time.Millisecond
	n, c, sc := newScriptedConn(t, cfg)

	data := bytes.Repeat([]byte("d"), 1460)
	sc.send(c.LocalAddr(), netsim.FlagACK, 5001, c.ISN()+1, data) // arrives t=5ms, deferred
	n.RunFor(35 * time.Millisecond)                               // t=39ms < 5+40
	if len(sc.out) != 0 {
		t.Fatalf("ACK sent before AckDelay elapsed: %v", sc.out)
	}
	n.RunFor(20 * time.Millisecond) // past the 45ms flush
	if len(sc.out) != 1 || sc.out[0].ack != 5001+1460 {
		t.Fatalf("want one flushed ACK of %d, got %v", 5001+1460, sc.out)
	}
	if c.AcksElided != 0 {
		t.Fatalf("timer flush counted as elided: %d", c.AcksElided)
	}
}

// The second in-order segment forces an immediate cumulative ACK (RFC
// 1122: at least every second segment), eliding the first's.
func TestDelayedAckSecondSegmentImmediate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DelayedAck = true
	n, c, sc := newScriptedConn(t, cfg)

	data := bytes.Repeat([]byte("d"), 1460)
	sc.send(c.LocalAddr(), netsim.FlagACK, 5001, c.ISN()+1, data)
	sc.send(c.LocalAddr(), netsim.FlagACK, 5001+1460, c.ISN()+1, data)
	n.RunFor(10 * time.Millisecond) // well under DefaultAckDelay
	if len(sc.out) != 1 || sc.out[0].ack != 5001+2*1460 {
		t.Fatalf("want one immediate cumulative ACK of %d, got %v", 5001+2*1460, sc.out)
	}
	if c.AcksElided != 1 {
		t.Fatalf("AcksElided = %d, want 1", c.AcksElided)
	}
	if c.delackTimer.Active() {
		t.Fatal("delack timer still armed after immediate ACK")
	}
}

// An out-of-order segment must produce an immediate duplicate ACK —
// delaying it would stall the sender's loss recovery.
func TestDelayedAckOutOfOrderImmediate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DelayedAck = true
	n, c, sc := newScriptedConn(t, cfg)

	data := bytes.Repeat([]byte("d"), 1460)
	// Skip the first segment: seq 5001+1460 arrives with 5001 missing.
	sc.send(c.LocalAddr(), netsim.FlagACK, 5001+1460, c.ISN()+1, data)
	n.RunFor(10 * time.Millisecond)
	if len(sc.out) != 1 || sc.out[0].ack != 5001 {
		t.Fatalf("want immediate dup ACK of 5001, got %v", sc.out)
	}
}

// A FIN is ACKed immediately even mid-deferral, so teardown is never
// stretched by AckDelay.
func TestDelayedAckFinImmediate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DelayedAck = true
	n, c, sc := newScriptedConn(t, cfg)

	data := bytes.Repeat([]byte("d"), 1460)
	sc.send(c.LocalAddr(), netsim.FlagACK, 5001, c.ISN()+1, data) // deferred on arrival
	sc.send(c.LocalAddr(), netsim.FlagFIN|netsim.FlagACK, 5001+1460, c.ISN()+1, nil)
	n.RunFor(10 * time.Millisecond)
	if len(sc.out) != 1 || sc.out[0].ack != 5001+1460+1 {
		t.Fatalf("want immediate ACK past FIN, got %v", sc.out)
	}
	if c.AcksElided != 1 {
		t.Fatalf("AcksElided = %d, want 1 (data ACK subsumed by FIN ACK)", c.AcksElided)
	}
}

// IdleProbe and DelayedAck interact: the probe's bare ACK subsumes a
// pending deferred ACK (one wire packet, not two), and probing keeps
// running afterwards.
func TestDelayedAckIdleProbeNotStarved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DelayedAck = true
	cfg.AckDelay = 40 * time.Millisecond
	cfg.IdleProbe = 25 * time.Millisecond
	n, c, sc := newScriptedConn(t, cfg)

	data := bytes.Repeat([]byte("d"), 1460)
	sc.send(c.LocalAddr(), netsim.FlagACK, 5001, c.ISN()+1, data)
	// Deferred at t=5ms, delack flush due 45ms; the probe (armed at the
	// t=3ms establish) fires first at 28ms and must subsume it.
	n.RunFor(31 * time.Millisecond) // t=35ms: probe ACK delivered, flush not due
	acked := 0
	for _, r := range sc.out {
		if r.ack == 5001+1460 && r.payload == 0 {
			acked++
		}
	}
	if acked != 1 {
		t.Fatalf("want exactly 1 ACK of %d (probe subsuming deferred ack), got %d (%v)", 5001+1460, acked, sc.out)
	}
	if c.AcksElided != 1 {
		t.Fatalf("AcksElided = %d, want 1", c.AcksElided)
	}
	if c.delackTimer.Active() {
		t.Fatal("delack timer still armed after probe flush")
	}
	// Probing is not starved: another probe fires an IdleProbe later.
	before := len(sc.out)
	n.RunFor(30 * time.Millisecond)
	if len(sc.out) <= before {
		t.Fatal("idle probe starved after delack interaction")
	}
}

// GSO trains: with GSOSegs=4 a 4-MSS write goes out as one packet, the
// receiver sees identical bytes, and the train counter ticks.
func TestGSOSegmentTrain(t *testing.T) {
	clientCfg := DefaultConfig()
	clientCfg.GSOSegs = 4
	p := newPair(1)
	log := attachWireLog(p.net)
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{OnData: func(c *Conn, d []byte) { got.Write(d) }}
	}, DefaultConfig())
	payload := bytes.Repeat([]byte("g"), 4*1460)
	cl := Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { c.Write(payload) },
	}, clientCfg)
	p.net.RunUntilIdle(100000)
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("server got %d bytes, want %d", got.Len(), len(payload))
	}
	if cl.GSOTrainsSent != 1 {
		t.Fatalf("GSOTrainsSent = %d, want 1", cl.GSOTrainsSent)
	}
	dataPkts := 0
	for _, r := range *log {
		if r.payload > 0 {
			dataPkts++
		}
	}
	if dataPkts != 1 {
		t.Fatalf("wire carried %d data packets, want 1 aggregated train", dataPkts)
	}
}

// GSO + loss + delayed ACKs: a dropped train is recovered by
// single-MSS retransmits and the transfer completes intact —
// byte-denominated rtx accounting is unaffected by trains.
func TestGSOTransferWithLoss(t *testing.T) {
	clientCfg := DefaultConfig()
	clientCfg.GSOSegs = 8
	serverCfg := DefaultConfig()
	serverCfg.DelayedAck = true
	p := newPair(7)
	dropped := false
	p.net.SetDropFunc(func(pkt *netsim.Packet) bool {
		if !dropped && len(pkt.Payload) > 1460 {
			dropped = true
			return true
		}
		return false
	})
	var got bytes.Buffer
	closed := false
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnData:      func(c *Conn, d []byte) { got.Write(d) },
			OnPeerClose: func(c *Conn) { c.Close() },
		}
	}, serverCfg)
	payload := bytes.Repeat([]byte("L"), 64*1024)
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) {
			c.Write(payload)
			c.Close()
		},
		OnClose: func(c *Conn) { closed = true },
	}, clientCfg)
	p.net.RunUntilIdle(1 << 20)
	if !dropped {
		t.Fatal("drop rule never matched a train")
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("server got %d bytes, want %d", got.Len(), len(payload))
	}
	if !closed {
		t.Fatal("connection never closed cleanly")
	}
}
