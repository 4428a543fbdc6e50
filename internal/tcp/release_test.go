package tcp

import (
	"strings"
	"testing"

	"repro/internal/netsim"
)

// releasingPair runs one exchange per cycle between a client and an
// echo server on n, both of which Release their conn once it closes.
// released collects every conn released so far, in order. Both ends'
// callbacks are built once, so a cycle binds nothing.
type releasingPair struct {
	p        *pair
	released []*Conn
	// onClose, when set, runs in the client's OnClose after its Release.
	onClose  func(c *Conn)
	client   Callbacks
	accepted Callbacks
}

func newReleasingPair(n *netsim.Network) *releasingPair {
	rp := &releasingPair{p: &pair{net: n, client: netsim.NewHost(n, clientIP), server: netsim.NewHost(n, serverIP)}}
	rp.accepted = Callbacks{
		OnData:      func(c *Conn, d []byte) { c.Write(d) },
		OnPeerClose: func(c *Conn) { c.Close() },
		OnClose:     rp.release,
	}
	rp.client = Callbacks{
		OnEstablished: func(c *Conn) { c.Write(releaseMsg) },
		OnData:        func(c *Conn, _ []byte) { c.Close() },
		OnClose: func(c *Conn) {
			rp.release(c)
			if rp.onClose != nil {
				rp.onClose(c)
			}
		},
	}
	Listen(rp.p.server, 80, func(*Conn) Callbacks { return rp.accepted }, DefaultConfig())
	return rp
}

func (rp *releasingPair) release(c *Conn) {
	c.Release()
	rp.released = append(rp.released, c)
}

var releaseMsg = []byte("one request")

// cycle dials, sends releaseMsg, closes once it is echoed and runs the
// network until both ends have closed and released their conns.
func (rp *releasingPair) cycle() *Conn {
	c := Dial(rp.p.client, netsim.HostPort{IP: serverIP, Port: 80}, rp.client, DefaultConfig())
	rp.p.net.RunUntilIdle(1 << 16)
	return c
}

// TestReleasedConnPanics: under PoisonReleasedBufs a released conn is
// never handed to another connection, and any method called on it panics
// with its endpoints.
func TestReleasedConnPanics(t *testing.T) {
	n := netsim.New(21)
	n.PoisonReleasedBufs()
	rp := newReleasingPair(n)
	c := rp.cycle()
	if len(rp.released) != 2 {
		t.Fatalf("%d conns released after one exchange, want both ends", len(rp.released))
	}
	if again := rp.cycle(); again == c || again == rp.released[1] {
		t.Fatal("a released conn was reused under poisoning")
	}
	for name, use := range map[string]func(){
		"Write":   func() { c.Write(releaseMsg) },
		"Close":   c.Close,
		"Abort":   c.Abort,
		"State":   func() { c.State() },
		"User":    func() { c.User() },
		"Release": c.Release,
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "used after Release") || !strings.Contains(msg, c.local.String()) {
					t.Errorf("%s on a released conn: panic %q, want one naming %v", name, msg, c.local)
				}
			}()
			use()
		}()
	}
}

// TestReleaseWaitsForUnwind: a conn released from its own OnClose is not
// handed out while its call stack is still running — a Dial from inside
// that callback gets another conn — and is the next Dial's once it has
// unwound.
func TestReleaseWaitsForUnwind(t *testing.T) {
	rp := newReleasingPair(netsim.New(22))
	var inside *Conn
	rp.onClose = func(c *Conn) {
		rp.onClose = nil
		inside = Dial(rp.p.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{}, DefaultConfig())
		if inside == c {
			t.Fatal("a Dial inside OnClose was handed the conn that callback had just released")
		}
		inside.Abort()
	}
	rp.cycle()
	if inside == nil {
		t.Fatal("the client's OnClose never ran")
	}
	if next := rp.cycle(); next != rp.released[0] && next != rp.released[1] {
		t.Fatal("the conns released in the last cycle were not reused by the next Dial")
	}
}

// TestConnCycleAllocs: once the network's pools and spares are warm, a
// whole connection — Dial, accept, one exchange, close and Release on
// both ends — allocates nothing.
func TestConnCycleAllocs(t *testing.T) {
	rp := newReleasingPair(netsim.New(23))
	rp.released = make([]*Conn, 0, 2*(8+101))
	for range 8 {
		rp.cycle()
	}
	if n := testing.AllocsPerRun(100, func() { rp.cycle() }); n != 0 {
		t.Fatalf("a warm connection cycle allocates %v objects, want 0", n)
	}
	if len(rp.released) != 2*(8+101) {
		t.Fatalf("%d conns released over %d cycles, want two per cycle", len(rp.released), 8+101)
	}
}
