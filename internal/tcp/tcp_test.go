package tcp

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/netsim"
)

var (
	clientIP = netsim.IPv4(100, 0, 0, 1)
	serverIP = netsim.IPv4(10, 0, 0, 1)
)

// pair wires up a network with one client host and one server host
// listening on port 80, echoing received bytes into a buffer.
type pair struct {
	net    *netsim.Network
	client *netsim.Host
	server *netsim.Host
}

func newPair(seed int64) *pair {
	n := netsim.New(seed)
	n.PoisonReleasedBufs() // nothing may read a payload after its sender's full ACK
	return &pair{
		net:    n,
		client: netsim.NewHost(n, clientIP),
		server: netsim.NewHost(n, serverIP),
	}
}

func TestHandshakeAndEcho(t *testing.T) {
	p := newPair(1)
	var serverGot bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnData: func(c *Conn, d []byte) {
				serverGot.Write(d)
				c.Write(d) // echo
			},
			OnPeerClose: func(c *Conn) { c.Close() },
		}
	}, DefaultConfig())

	var clientGot bytes.Buffer
	established := false
	closed := false
	c := Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) {
			established = true
			c.Write([]byte("hello world"))
			c.Close()
		},
		OnData:  func(c *Conn, d []byte) { clientGot.Write(d) },
		OnClose: func(c *Conn) { closed = true },
	}, DefaultConfig())

	p.net.RunUntilIdle(10000)
	if !established {
		t.Fatal("client never established")
	}
	if serverGot.String() != "hello world" {
		t.Fatalf("server got %q", serverGot.String())
	}
	if clientGot.String() != "hello world" {
		t.Fatalf("client echo got %q", clientGot.String())
	}
	if !closed {
		t.Fatal("client connection never fully closed")
	}
	if c.State() != StateClosed {
		t.Fatalf("client state = %v", c.State())
	}
}

func TestHandshakeLatency(t *testing.T) {
	p := newPair(1)
	Listen(p.server, 80, func(c *Conn) Callbacks { return Callbacks{} }, DefaultConfig())
	var at time.Duration = -1
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { at = p.net.Now() },
	}, DefaultConfig())
	p.net.RunUntilIdle(100)
	// Client establishes after 1 RTT = 60ms (client<->DC is 30ms one way).
	if at != 60*time.Millisecond {
		t.Fatalf("established at %v, want 60ms", at)
	}
}

func TestLargeTransfer(t *testing.T) {
	p := newPair(2)
	payload := make([]byte, 500*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnEstablished: func(c *Conn) {
				c.Write(payload)
				c.Close()
			},
		}
	}, DefaultConfig())
	done := false
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData:      func(c *Conn, d []byte) { got.Write(d) },
		OnPeerClose: func(c *Conn) { c.Close(); done = true },
	}, DefaultConfig())
	p.net.RunUntilIdle(1_000_000)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("payload corrupted: got %d bytes, want %d", got.Len(), len(payload))
	}
}

// writeKinds are the three ways to put a head and a body on a connection.
// The wire must not be able to tell them apart.
var writeKinds = []struct {
	name string
	send func(c *Conn, head, body []byte)
}{
	{"Write", func(c *Conn, head, body []byte) { c.Write(join(head, body)) }},
	{"Writev", func(c *Conn, head, body []byte) { c.Writev(head, nil, body) }},
	{"WriteStatic", func(c *Conn, head, body []byte) { c.WriteStatic(head, body) }},
}

func join(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// object returns the n-byte body every run of a case serves, so that a
// run can tell afterwards whether anything wrote into the one it lent out.
func object(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31) + salt
	}
	return b
}

// aliases reports whether p is a sub-slice of arr's array.
func aliases(p, arr []byte) bool {
	if len(p) == 0 || len(arr) == 0 {
		return false
	}
	return uintptr(unsafe.Pointer(&p[0]))-uintptr(unsafe.Pointer(&arr[0])) < uintptr(len(arr))
}

// wireCase is one scenario of TestWritevMatchesWrite: a server answers
// the handshake with head+body and closes.
type wireCase struct {
	name string
	body int  // bytes of body
	drop bool // the network loses every 4th packet, whatever it is
	lose int  // the network loses the first segment of exactly this many bytes
	// second, if set, is how a second response is written ("static": the
	// way under test, "write": a plain Write of the joined bytes) gap after
	// the first, while the first's body is still unacknowledged.
	second string
	gap    time.Duration
}

var (
	wireHead  = []byte("HTTP/1.1 200 OK\r\nContent-Length: 524288\r\n\r\n")
	wireHead2 = []byte("HTTP/1.1 404 Not Found\r\nContent-Length: 3000\r\n\r\n")
)

// run plays the case with one way of writing and returns the wire log,
// the bytes the client read, and how many payload bytes on the wire lay
// in the served objects themselves.
func (tc wireCase) run(t *testing.T, send func(c *Conn, head, body []byte)) (wire []string, got []byte, inPlace int) {
	p := newPair(7) // poisons released buffers
	body, body2 := object(tc.body, 7), object(3000, 99)
	p.net.SetTracer(func(ev netsim.TraceEvent) {
		pk := ev.Packet
		wire = append(wire, fmt.Sprintf("%v %v>%v %v seq=%d ack=%d len=%d dropped=%v", ev.At, pk.Src, pk.Dst, pk.Flags, pk.Seq, pk.Ack, len(pk.Payload), ev.Dropped))
		if aliases(pk.Payload, body) || aliases(pk.Payload, body2) {
			inPlace += len(pk.Payload)
		}
	})
	k, lost := 0, false
	p.net.SetDropFunc(func(pk *netsim.Packet) bool {
		if k++; tc.drop && k%4 == 0 {
			return true
		}
		if len(pk.Payload) == tc.lose && tc.lose > 0 && !lost {
			lost = true
			return true
		}
		return false
	})
	var srv *Conn
	Listen(p.server, 80, func(c *Conn) Callbacks {
		srv = c
		return Callbacks{OnEstablished: func(c *Conn) {
			send(c, wireHead, body)
			if tc.second == "" {
				c.Close()
				return
			}
			p.net.Schedule(tc.gap, func() {
				if c.inflight() == 0 {
					t.Errorf("%s: second response written with nothing of the first in flight", tc.name)
				}
				if tc.second == "static" {
					send(c, wireHead2, body2)
				} else {
					c.Write(join(wireHead2, body2))
				}
				c.Close()
			})
		}}
	}, DefaultConfig())
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData:      func(c *Conn, d []byte) { got = append(got, d...) },
		OnPeerClose: func(c *Conn) { c.Close() },
	}, DefaultConfig())
	p.net.RunUntilIdle(5_000_000)
	want := join(wireHead, body)
	if tc.second != "" {
		want = join(want, wireHead2, body2)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: client read %d bytes, want %d, first difference at %d", tc.name, len(got), len(want), firstDiff(got, want))
	}
	// A borrowed array is only ever read: never written, never released
	// (a released one would now be full of 0xDD).
	if !bytes.Equal(body, object(tc.body, 7)) || !bytes.Equal(body2, object(3000, 99)) {
		t.Fatalf("%s: the served object was modified", tc.name)
	}
	if srv.State() != StateClosed || srv.sndBuf != nil || srv.sndTail != nil {
		t.Fatalf("%s: server conn %v keeps sndBuf cap %d, tail %d bytes", tc.name, srv.State(), cap(srv.sndBuf), len(srv.sndTail))
	}
	return wire, got, inPlace
}

// crossing makes a retransmit start in sndBuf and end in the tail. The
// first response leaves 300 bytes of the initial window, so the second's
// first segment is that short and moves the boundary to its end; it is
// lost, the segments after it go out of the tail, and its retransmit takes
// a whole MSS.
var crossing = wireCase{name: "retransmit-across-boundary", body: 10*1460 - 300 - len(wireHead), second: "static", lose: 300}

// TestRetransmitAcrossBoundary checks that the crossing case is one: the
// retransmit finds the boundary inside its MSS and moves it to its end.
func TestRetransmitAcrossBoundary(t *testing.T) {
	var srv *Conn
	p := newPair(7)
	lost := false
	p.net.SetDropFunc(func(pk *netsim.Packet) bool {
		drop := len(pk.Payload) == crossing.lose && !lost
		lost = lost || drop
		return drop
	})
	Listen(p.server, 80, func(c *Conn) Callbacks {
		srv = c
		return Callbacks{OnEstablished: func(c *Conn) {
			c.WriteStatic(wireHead, object(crossing.body, 7))
			c.WriteStatic(wireHead2, object(3000, 99))
		}}
	}, DefaultConfig())
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{}, DefaultConfig())
	// boundary is the stream offset at which the borrowed tail begins.
	boundary := func() int { return int(srv.bufSeq-srv.iss-1) + len(srv.sndBuf) - int(srv.sndHead) }
	p.net.RunFor(250 * time.Millisecond) // everything sent, all but the short segment acknowledged
	start := 10*1460 - 300
	if got := int(srv.sndUna - srv.iss - 1); !lost || got != start || boundary() != start+300 || srv.Retransmits != 0 {
		t.Fatalf("before the retransmit: lost %v, sndUna at %d (want %d), boundary at %d (want %d), %d retransmits",
			lost, got, start, boundary(), start+300, srv.Retransmits)
	}
	p.net.RunFor(250 * time.Millisecond) // past the RTO (300 ms after the last ACK that advanced), before its ACK
	if boundary() != start+1460 || srv.Retransmits != 1 {
		t.Fatalf("after the retransmit: boundary at %d (want %d), %d retransmits", boundary(), start+1460, srv.Retransmits)
	}
}

// TestWritevMatchesWrite: a gather write and a static write must put the
// same bytes in the same segments at the same instants as one Write of
// the joined parts — first transmissions, PSH flags, retransmits and all —
// and the static write must do so from the body itself.
func TestWritevMatchesWrite(t *testing.T) {
	mss := DefaultConfig().MSS
	cases := []wireCase{
		{name: "body=0", body: 0},
		{name: "body=ends-on-segment", body: mss - len(wireHead)},
		{name: "body=2k", body: 2 << 10},
		{name: "body=100k", body: 100_000},
		{name: "body=512k", body: 512 << 10},
		{name: "drop/body=2k", body: 2 << 10, drop: true},
		{name: "drop/body=100k", body: 100_000, drop: true},
		{name: "drop/body=512k", body: 512 << 10, drop: true},
		crossing,
		{name: "second=static/gap=0", body: 100_000, second: "static"},
		{name: "second=static/gap=100ms", body: 100_000, second: "static", gap: 100 * time.Millisecond},
		{name: "second=write/gap=0", body: 100_000, second: "write"},
		{name: "second=write/gap=100ms", body: 100_000, second: "write", gap: 100 * time.Millisecond},
		{name: "drop/second=static/gap=100ms", body: 100_000, drop: true, second: "static", gap: 100 * time.Millisecond},
		{name: "drop/second=write/gap=100ms", body: 100_000, drop: true, second: "write", gap: 100 * time.Millisecond},
		{name: "second=static/gap=100ms/body=512k", body: 512 << 10, second: "static", gap: 100 * time.Millisecond},
	}
	for _, tc := range cases {
		ref, _, copied := tc.run(t, writeKinds[0].send)
		if copied != 0 {
			t.Fatalf("%s: a copying Write put %d bytes of the object itself on the wire", tc.name, copied)
		}
		for _, k := range writeKinds[1:] {
			wire, _, inPlace := tc.run(t, k.send)
			if len(wire) != len(ref) {
				t.Fatalf("%s: %s put %d packets on the wire, Write %d", tc.name, k.name, len(wire), len(ref))
			}
			for i := range ref {
				if ref[i] != wire[i] {
					t.Fatalf("%s: packet %d differs:\n Write %s\n %s %s", tc.name, i, ref[i], k.name, wire[i])
				}
			}
			// Without loss or a second write to take the tail in, all of
			// the body but the part of its first segment goes out in place.
			if k.name == "WriteStatic" && !tc.drop && tc.second == "" {
				if inPlace < tc.body-mss || inPlace > tc.body {
					t.Fatalf("%s: %d of the body's %d bytes were transmitted in place", tc.name, inPlace, tc.body)
				}
			}
		}
	}
}

// TestTeardownDropsBuffers: applications keep closed conns for their
// stats; a closed conn must not keep its send buffer with them, nor a
// reference to a body it was serving in place — whether it closed in
// good order or was cut down with most of the body unsent.
func TestTeardownDropsBuffers(t *testing.T) {
	for _, abort := range []bool{false, true} {
		p := newPair(8)
		var srv, cli *Conn
		recvd := 0
		body := object(100<<10, 1)
		Listen(p.server, 80, func(c *Conn) Callbacks {
			srv = c
			return Callbacks{
				OnEstablished: func(c *Conn) { c.WriteStatic(make([]byte, 100), body); c.Close() },
			}
		}, DefaultConfig())
		cli = Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
			OnData:      func(_ *Conn, d []byte) { recvd += len(d) },
			OnPeerClose: func(c *Conn) { c.Close() },
		}, DefaultConfig())
		if abort {
			p.net.RunFor(100 * time.Millisecond)
			if len(srv.sndTail) == 0 || srv.inflight() == 0 {
				t.Fatalf("server conn was to be aborted in mid-transfer: %d bytes of tail, %d in flight", len(srv.sndTail), srv.inflight())
			}
			srv.Abort()
		}
		p.net.RunUntilIdle(1_000_000)
		for _, c := range []*Conn{srv, cli} {
			if c.State() != StateClosed {
				t.Fatalf("conn %v not closed: %v", c.LocalAddr(), c.State())
			}
			if c.sndBuf != nil || c.sndHead != 0 || c.sndTail != nil || c.reasm != nil {
				t.Fatalf("closed conn %v keeps sndBuf cap %d head %d tail %d reasm %d", c.LocalAddr(), cap(c.sndBuf), c.sndHead, len(c.sndTail), len(c.reasm))
			}
		}
		if want := 100 + 100<<10; !abort && recvd != want {
			t.Fatalf("client received %d of %d bytes", recvd, want)
		}
		if !bytes.Equal(body, object(100<<10, 1)) {
			t.Fatal("teardown released or wrote the borrowed body")
		}
	}
}

// TestConnSizeClass: a Conn, the two words of the Callbacks.User
// interface included, fits the allocator's 288-byte size class. It keeps
// of Config only what it reads after the handshake, reaches the network
// through its host, arms its timers as their owner (rtxDue, probeDue)
// on two-word handles, counts no bytes (the wire and OnData do), and
// packs its one-byte fields into one word; past 288 every connection
// costs 320.
func TestConnSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Conn{}); sz > 288 {
		t.Fatalf("tcp.Conn is %d bytes and has left the 288-byte size class: every connection now costs 320, "+
			"which moves yodabench's held-failover heap_bytes_per_live_flow (two Conns per flow, bound 1%%), "+
			"TestLiveFlowHeapLedger's flow_heap_bytes_tcp row and BenchmarkIdleConnHeap's tcp_idle_conn_pair_heap_bytes", sz)
	}
}

var msg2K = bytes.Repeat([]byte("yoda"), 512)

// exchange2K connects a client to a server (listening on port) that
// answers each 2 KiB request with a 2 KiB response, runs one exchange to
// quiescence and returns both ends, established and idle.
func exchange2K(t testing.TB, p *pair, port uint16) (cli, srv *Conn) {
	t.Helper()
	msg := msg2K
	got := 0
	Listen(p.server, port, func(c *Conn) Callbacks {
		srv = c
		return Callbacks{OnData: func(c *Conn, d []byte) {
			if got += len(d); got%len(msg) == 0 {
				c.Write(msg)
			}
		}}
	}, DefaultConfig())
	cli = Dial(p.client, netsim.HostPort{IP: serverIP, Port: port}, Callbacks{
		OnEstablished: func(c *Conn) { c.Write(msg) },
	}, DefaultConfig())
	p.net.RunUntilIdle(1_000_000)
	for _, c := range [][2]*Conn{{cli, srv}, {srv, cli}} {
		if c[0].State() != StateEstablished || received(c[0], c[1]) != uint32(len(msg)) || c[0].inflight() != 0 {
			t.Fatalf("conn %v after the exchange: %v, %d bytes received, %d in flight", c[0].LocalAddr(), c[0].State(), received(c[0], c[1]), c[0].inflight())
		}
	}
	return cli, srv
}

// received is the payload bytes c has taken in from peer, before any FIN.
func received(c, peer *Conn) uint32 { return c.rcvNxt - peer.iss - 1 }

// TestIdleConnOwnsNoSendBuffer: "idle" is something the stack knows —
// every byte acknowledged, nothing queued — and an idle connection holds
// no send buffer, yet its next Write finds one without allocating.
func TestIdleConnOwnsNoSendBuffer(t *testing.T) {
	p := newPair(16)
	cli, srv := exchange2K(t, p, 80)
	for _, c := range []*Conn{cli, srv} {
		if c.sndBuf != nil || c.sndHead != 0 {
			t.Fatalf("idle conn %v keeps a send buffer: cap %d head %d", c.LocalAddr(), cap(c.sndBuf), c.sndHead)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		cli.Write(msg2K)
		p.net.RunUntilIdle(1_000_000)
	})
	if allocs != 0 {
		t.Fatalf("a Write on an idle conn and its reply allocate %.1f objects, want 0", allocs)
	}
	if cli.sndBuf != nil || srv.sndBuf != nil || received(cli, srv) != received(srv, cli) {
		t.Fatalf("after more exchanges: client buf %d, server buf %d, received %d vs %d",
			cap(cli.sndBuf), cap(srv.sndBuf), received(cli, srv), received(srv, cli))
	}
}

// TestLargeSendBufferStaysWithConn: the pool does not hold arrays the
// size of a bulk response, so a connection that grew one keeps it, rewound,
// over the full ACK — a keep-alive connection sending one large body after
// another must not re-grow the array each time (with poisoning on, the
// rewound array is scribbled over too, and the peer must not notice).
func TestLargeSendBufferStaysWithConn(t *testing.T) {
	p := newPair(19)
	body := bytes.Repeat([]byte("0123456789abcdef"), 256<<10/16)
	var got int
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{OnData: func(c *Conn, d []byte) {
			for i, x := range d {
				if x != body[(got+i)%len(body)] {
					t.Fatalf("byte %d corrupted: %#x", got+i, x)
				}
			}
			got += len(d)
		}}
	}, DefaultConfig())
	c := Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{}, DefaultConfig())
	p.net.RunUntilIdle(100)
	c.Write(body)
	p.net.RunUntilIdle(1_000_000)
	if len(c.sndBuf) != 0 || cap(c.sndBuf) < len(body) || c.sndHead != 0 {
		t.Fatalf("after a fully acknowledged %d-byte write: len %d cap %d head %d", len(body), len(c.sndBuf), cap(c.sndBuf), c.sndHead)
	}
	allocs := testing.AllocsPerRun(10, func() {
		c.Write(body)
		p.net.RunUntilIdle(1_000_000)
	})
	if allocs != 0 {
		t.Fatalf("a repeated %d-byte write allocates %.1f objects, want 0", len(body), allocs)
	}
	if got != 12*len(body) {
		t.Fatalf("peer read %d bytes, want %d", got, 12*len(body))
	}
}

// TestOutgrownSendArrayRetiresAtItsACK: a write that overflows the send
// array moves the live bytes to a larger pool array. The old one still
// backs segments in flight, so it goes back to the pool only at the ACK
// that covers them: with poisoning on, an early return scribbles over
// bytes the peer has yet to read.
func TestOutgrownSendArrayRetiresAtItsACK(t *testing.T) {
	p := newPair(20)
	first, second := object(600, 1), object(4<<10, 2)
	var got []byte
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{OnData: func(c *Conn, d []byte) { got = append(got, d...) }}
	}, DefaultConfig())
	c := Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{}, DefaultConfig())
	p.net.RunUntilIdle(100)
	c.Write(first) // sent at once
	old := c.sndBuf
	c.Write(second)
	if aliases(c.sndBuf, old) || len(c.rtxBufs) != 1 || !aliases(c.rtxBufs[0].buf, old) || c.rtxBufs[0].end != c.sndUna+uint32(len(first)) {
		t.Fatalf("the outgrown array did not retire behind the %d bytes sent from it: %d retired copies", len(first), len(c.rtxBufs))
	}
	p.net.RunUntilIdle(1_000_000)
	if !bytes.Equal(got, join(first, second)) {
		t.Fatalf("peer read %d bytes, corrupted or short, of %d", len(got), len(first)+len(second))
	}
	if reuse := p.net.AllocBuf(cap(old)); len(c.rtxBufs) != 0 || c.sndBuf != nil || !aliases(reuse[:1], old) {
		t.Fatalf("after the full ACK: %d retired copies, send buffer cap %d, the outgrown array pooled: %v", len(c.rtxBufs), cap(c.sndBuf), aliases(reuse[:1], old))
	}
}

// TestTeardownWithUnackedDataDoesNotPoolBuffer: a conn torn down with
// transmitted, unacknowledged bytes must not hand their array to the
// pool — the segments are still in flight and the peer will read them —
// while one torn down before anything was transmitted may.
func TestTeardownWithUnackedDataDoesNotPoolBuffer(t *testing.T) {
	pooled := func(n *netsim.Network, b []byte) bool {
		got := n.AllocBuf(cap(b))
		return &got[:1][0] == &b[:1][0]
	}
	msg := bytes.Repeat([]byte{0xAB}, 1000)

	p := newPair(17)
	var got []byte
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{OnData: func(c *Conn, d []byte) { got = append(got, d...) }}
	}, DefaultConfig())
	c := Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{}, DefaultConfig())
	p.net.RunUntilIdle(100)
	c.Write(msg)
	buf := c.sndBuf
	c.Abort() // data segment and RST are both in flight
	if c.sndBuf != nil {
		t.Fatal("closed conn keeps its send buffer")
	}
	if pooled(p.net, buf) {
		t.Fatal("send buffer with unacknowledged bytes in flight went back to the pool")
	}
	p.net.RunUntilIdle(100)
	if !bytes.Equal(got, msg) {
		t.Fatalf("peer read %d bytes of the in-flight segment, corrupted or short", len(got))
	}

	// Written before the handshake completes, never transmitted.
	p = newPair(18)
	c = Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{}, DefaultConfig())
	c.Write(msg)
	buf = c.sndBuf
	c.Abort()
	if !pooled(p.net, buf) {
		t.Fatal("never-transmitted send buffer was not returned to the pool")
	}
}

func TestTransferWithLoss(t *testing.T) {
	p := newPair(3)
	// Drop 5% of data segments (never control packets, to keep the test fast).
	rng := p.net.Rand()
	p.net.SetDropFunc(func(pkt *netsim.Packet) bool {
		return len(pkt.Payload) > 0 && rng.Float64() < 0.05
	})
	payload := make([]byte, 200*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnEstablished: func(c *Conn) { c.Write(payload); c.Close() },
		}
	}, DefaultConfig())
	done := false
	cl := Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData:      func(c *Conn, d []byte) { got.Write(d) },
		OnPeerClose: func(c *Conn) { c.Close(); done = true },
	}, DefaultConfig())
	p.net.RunUntilIdle(2_000_000)
	if !done {
		t.Fatalf("lossy transfer did not complete; got %d/%d bytes, client state %v",
			got.Len(), len(payload), cl.State())
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("payload corrupted under loss")
	}
}

func TestRetransmitTiming(t *testing.T) {
	p := newPair(4)
	// Drop the first transmission of data from the server so it must
	// retransmit. First retransmit should occur RTO (300ms) after send.
	dropped := 0
	p.net.SetDropFunc(func(pkt *netsim.Packet) bool {
		if len(pkt.Payload) > 0 && pkt.Src.IP == serverIP && dropped == 0 {
			dropped++
			return true
		}
		return false
	})
	var sendTimes []time.Duration
	p.net.SetTracer(func(ev netsim.TraceEvent) {
		if len(ev.Packet.Payload) > 0 && ev.Packet.Src.IP == serverIP {
			sendTimes = append(sendTimes, ev.At)
		}
	})
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{OnEstablished: func(c *Conn) { c.Write([]byte("x")); c.Close() }}
	}, DefaultConfig())
	var got bytes.Buffer
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData:      func(c *Conn, d []byte) { got.Write(d) },
		OnPeerClose: func(c *Conn) { c.Close() },
	}, DefaultConfig())
	p.net.RunUntilIdle(10000)
	if got.String() != "x" {
		t.Fatalf("client got %q", got.String())
	}
	// Tracer sees the drop event too (it fires at delivery time for drops),
	// so we need at least two observations; the gap between the first data
	// delivery attempt and the retransmission must be the 300ms base RTO.
	if len(sendTimes) < 2 {
		t.Fatalf("observed %d data deliveries", len(sendTimes))
	}
	gap := sendTimes[1] - sendTimes[0]
	if gap != 300*time.Millisecond {
		t.Fatalf("retransmit gap = %v, want 300ms", gap)
	}
}

func TestRetransmitBackoffDoubles(t *testing.T) {
	p := newPair(5)
	drops := 0
	p.net.SetDropFunc(func(pkt *netsim.Packet) bool {
		if len(pkt.Payload) > 0 && pkt.Src.IP == serverIP && drops < 3 {
			drops++
			return true
		}
		return false
	})
	var times []time.Duration
	p.net.SetTracer(func(ev netsim.TraceEvent) {
		if len(ev.Packet.Payload) > 0 && ev.Packet.Src.IP == serverIP {
			times = append(times, ev.At)
		}
	})
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{OnEstablished: func(c *Conn) { c.Write([]byte("y")); c.Close() }}
	}, DefaultConfig())
	ok := false
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData: func(c *Conn, d []byte) { ok = true },
	}, DefaultConfig())
	p.net.RunUntilIdle(10000)
	if !ok {
		t.Fatal("data never arrived")
	}
	if len(times) < 4 {
		t.Fatalf("observed %d attempts, want 4", len(times))
	}
	g1, g2, g3 := times[1]-times[0], times[2]-times[1], times[3]-times[2]
	if g1 != 300*time.Millisecond || g2 != 600*time.Millisecond || g3 != 1200*time.Millisecond {
		t.Fatalf("gaps = %v %v %v, want 300ms 600ms 1.2s", g1, g2, g3)
	}
}

func TestSynRetransmitAt3s(t *testing.T) {
	p := newPair(6)
	var synTimes []time.Duration
	p.net.SetTracer(func(ev netsim.TraceEvent) {
		if ev.Packet.Flags.Has(netsim.FlagSYN) && !ev.Packet.Flags.Has(netsim.FlagACK) {
			synTimes = append(synTimes, ev.At)
		}
	})
	first := true
	p.net.SetDropFunc(func(pkt *netsim.Packet) bool {
		if pkt.Flags.Has(netsim.FlagSYN) && !pkt.Flags.Has(netsim.FlagACK) && first {
			first = false
			return true
		}
		return false
	})
	Listen(p.server, 80, func(c *Conn) Callbacks { return Callbacks{} }, DefaultConfig())
	est := false
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { est = true },
	}, DefaultConfig())
	p.net.RunUntilIdle(1000)
	if !est {
		t.Fatal("never established")
	}
	if len(synTimes) != 2 {
		t.Fatalf("SYN attempts = %d", len(synTimes))
	}
	if gap := synTimes[1] - synTimes[0]; gap != 3*time.Second {
		t.Fatalf("SYN retransmit gap = %v, want 3s (Ubuntu default)", gap)
	}
}

func TestConnectToClosedPortFails(t *testing.T) {
	p := newPair(7)
	p.server.SetDefault(netsim.PortHandlerFunc(func(pkt *netsim.Packet) {
		sendRST(p.net, pkt) // what a kernel answers for a closed port
		p.net.ReleasePacket(pkt)
	}))
	var failErr error
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 81}, Callbacks{
		OnFail: func(c *Conn, err error) { failErr = err },
	}, DefaultConfig())
	p.net.RunUntilIdle(1000)
	if failErr != ErrReset {
		t.Fatalf("err = %v, want ErrReset", failErr)
	}
}

func TestConnectTimeoutWhenServerDead(t *testing.T) {
	p := newPair(8)
	p.server.Detach()
	cfg := DefaultConfig()
	cfg.MaxRetries = 2
	var failErr error
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnFail: func(c *Conn, err error) { failErr = err },
	}, cfg)
	p.net.RunUntilIdle(1000)
	if failErr != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", failErr)
	}
}

func TestAbortSendsRST(t *testing.T) {
	p := newPair(9)
	var srvConn *Conn
	var srvFail error
	Listen(p.server, 80, func(c *Conn) Callbacks {
		srvConn = c
		return Callbacks{OnFail: func(c *Conn, err error) { srvFail = err }}
	}, DefaultConfig())
	var cl *Conn
	cl = Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { c.Write([]byte("x")) },
	}, DefaultConfig())
	p.net.RunUntilIdle(100)
	cl.Abort()
	p.net.RunUntilIdle(100)
	if srvFail != ErrReset {
		t.Fatalf("server fail = %v, want ErrReset", srvFail)
	}
	if srvConn.State() != StateClosed {
		t.Fatalf("server state = %v", srvConn.State())
	}
}

func TestBidirectionalSimultaneousData(t *testing.T) {
	p := newPair(10)
	big := func(tag byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = tag
		}
		return b
	}
	var srvGot, cliGot bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnEstablished: func(c *Conn) { c.Write(big('s', 50000)); c.Close() },
			OnData:        func(c *Conn, d []byte) { srvGot.Write(d) },
			OnPeerClose:   func(c *Conn) {},
		}
	}, DefaultConfig())
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) { c.Write(big('c', 50000)); c.Close() },
		OnData:        func(c *Conn, d []byte) { cliGot.Write(d) },
	}, DefaultConfig())
	p.net.RunUntilIdle(500000)
	if srvGot.Len() != 50000 || cliGot.Len() != 50000 {
		t.Fatalf("srv=%d cli=%d, want 50000 each", srvGot.Len(), cliGot.Len())
	}
}

func TestWriteAfterCloseDiscarded(t *testing.T) {
	p := newPair(11)
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnData:      func(c *Conn, d []byte) { got.Write(d) },
			OnPeerClose: func(c *Conn) { c.Close() },
		}
	}, DefaultConfig())
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) {
			c.Write([]byte("before"))
			c.Close()
			c.Write([]byte("after"))
		},
	}, DefaultConfig())
	p.net.RunUntilIdle(10000)
	if got.String() != "before" {
		t.Fatalf("server got %q, want only pre-close data", got.String())
	}
}

func TestManySequentialConnections(t *testing.T) {
	p := newPair(12)
	served := 0
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnData: func(c *Conn, d []byte) {
				served++
				c.Write(d)
				c.Close()
			},
		}
	}, DefaultConfig())
	const N = 50
	finished := 0
	var dial func(i int)
	dial = func(i int) {
		if i >= N {
			return
		}
		Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
			OnEstablished: func(c *Conn) { c.Write([]byte(fmt.Sprintf("req-%d", i))) },
			OnPeerClose: func(c *Conn) {
				c.Close()
				finished++
				dial(i + 1)
			},
		}, DefaultConfig())
	}
	dial(0)
	p.net.RunUntilIdle(1_000_000)
	if served != N || finished != N {
		t.Fatalf("served=%d finished=%d, want %d", served, finished, N)
	}
}

func TestSeqCompareProperties(t *testing.T) {
	// seqLT must behave like signed distance comparison, handling wraparound.
	f := func(a, b uint32) bool {
		d := int32(a - b)
		if d < 0 {
			return seqLT(a, b) && !seqLT(b, a)
		}
		if d > 0 {
			return !seqLT(a, b) && seqLT(b, a)
		}
		return !seqLT(a, b) && !seqLT(b, a) && seqLEQ(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeqWraparoundTransfer(t *testing.T) {
	// Force an ISN near the 32-bit boundary and push enough data across it.
	p := newPair(13)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnEstablished: func(c *Conn) {
				// Rewind the server's sequence space to just before wrap.
				c.iss = 0xFFFFF000
				c.sndUna = c.iss
				c.sndNxt = c.iss + 1
				c.bufSeq = c.iss + 1
				c.Write(payload)
				c.Close()
			},
		}
	}, DefaultConfig())
	// The ISN override above happens after SYN-ACK is sent with the real
	// ISN, so instead exercise wraparound purely via seq arithmetic on the
	// client side by dialing normally: the property test above plus a
	// deterministic high-ISN unit test below cover the arithmetic.
	_ = got
	conn := &Conn{mss: DefaultConfig().MSS}
	conn.iss = 0xFFFFFFF0
	conn.sndUna = conn.iss + 1
	conn.sndNxt = conn.iss + 1
	conn.bufSeq = conn.iss + 1
	if conn.inflight() != 0 {
		t.Fatal("inflight at wrap boundary")
	}
	conn.sndNxt += 0x100 // crosses zero
	if conn.inflight() != 0x100 {
		t.Fatalf("inflight across wrap = %d", conn.inflight())
	}
}

func TestStateStrings(t *testing.T) {
	states := []State{StateSynSent, StateSynReceived, StateEstablished,
		StateFinWait, StateCloseWait, StateLastAck, StateClosed, State(99)}
	for _, s := range states {
		if s.String() == "" {
			t.Errorf("state %d has empty string", int(s))
		}
	}
}

func TestListenerClose(t *testing.T) {
	p := newPair(14)
	l := Listen(p.server, 80, func(c *Conn) Callbacks { return Callbacks{} }, DefaultConfig())
	l.Close()
	cfg := DefaultConfig()
	cfg.MaxRetries = 1
	var failErr error
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnFail: func(c *Conn, err error) { failErr = err },
	}, cfg)
	p.net.RunUntilIdle(1000)
	if failErr == nil {
		t.Fatal("dial to closed listener should fail")
	}
}

func TestDuplicateDataSuppressed(t *testing.T) {
	// Deliver every data packet twice; the application must see each byte once.
	p := newPair(15)
	n := p.net
	orig := make(chan struct{}) // unused; just documents intent
	_ = orig
	var tracer func(ev netsim.TraceEvent)
	dup := map[*netsim.Packet]bool{}
	tracer = func(ev netsim.TraceEvent) {
		pkt := ev.Packet
		if !ev.Dropped && len(pkt.Payload) > 0 && !dup[pkt] {
			clone := pkt.Clone()
			dup[clone] = true
			n.Send(clone)
		}
	}
	n.SetTracer(tracer)
	payload := []byte("exactly-once-delivery-check")
	var got bytes.Buffer
	Listen(p.server, 80, func(c *Conn) Callbacks {
		return Callbacks{OnEstablished: func(c *Conn) { c.Write(payload); c.Close() }}
	}, DefaultConfig())
	Dial(p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData:      func(c *Conn, d []byte) { got.Write(d) },
		OnPeerClose: func(c *Conn) { c.Close() },
	}, DefaultConfig())
	n.RunUntilIdle(10000)
	if got.String() != string(payload) {
		t.Fatalf("got %q, want %q exactly once", got.String(), payload)
	}
}
