package core_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
	"repro/internal/testbed"
)

// TestAdoptedHalfClosedCopyWaitsForTheBackend is the other side of an
// adopted copy's half-close. A copy that has relayed the client's FIN
// cannot tell whether its dead owner relayed the backend's, so it closes
// itself once the flow is silent for finLinger (1 s); every packet
// restarts that wait, so a backend that keeps answering a half-closed
// client keeps the copy open. Here the owner dies after forwarding the
// request, a survivor adopts the flow from the client's FIN, and the
// backend, a raw endpoint, answers that FIN with eight chunks 400 ms
// apart, 2.8 s in all, then closes. The client must get every byte and
// the backend's FIN through the copy, and the cluster must settle with
// the monitor seeing no breach: one adoption for the one withdrawal.
func TestAdoptedHalfClosedCopyWaitsForTheBackend(t *testing.T) {
	c := cluster.New(31)
	c.Net.PoisonReleasedBufs()
	c.AddStoreServers(3, memcache.DefaultSimServerConfig())
	c.AddYodaN(3, core.DefaultConfig(), tcpstore.DefaultConfig())
	vip := c.AddVIP("svc")
	backend := netsim.NewHost(c.Net, netsim.IPv4(10, 0, 2, 9))
	rec := rules.Backend{Name: "stream-1", Addr: netsim.HostPort{IP: backend.IP(), Port: 80}}
	c.InstallPolicy(vip, []rules.Rule{{Name: "all", Priority: 1, Match: rules.Match{URLGlob: "*"},
		Action: rules.Action{Type: rules.ActionSplit, Split: []rules.WeightedBackend{{Backend: rec, Weight: 1}}}}}, nil)
	tb := &testbed.Bed{C: c, VIP: vip, Addr: netsim.HostPort{IP: vip, Port: 80}}
	core.CountNotes(t, c.Net, nil)

	const chunks, gap = 8, 400 * time.Millisecond
	var want []byte
	tcp.Listen(backend, 80, func(*tcp.Conn) tcp.Callbacks {
		return tcp.Callbacks{OnPeerClose: func(conn *tcp.Conn) {
			for i := range chunks {
				chunk := bytes.Repeat([]byte{byte('a' + i)}, 100)
				want = append(want, chunk...)
				c.Net.Schedule(time.Duration(i)*gap, func() { conn.Write(chunk) })
			}
			c.Net.Schedule((chunks-1)*gap, conn.Close)
		}}
	}, tcp.DefaultConfig())

	var got []byte
	var peerClosed bool
	var failed error
	conn := tcp.Dial(c.ClientHost(), tb.Addr, tcp.Callbacks{
		OnEstablished: func(conn *tcp.Conn) { conn.Write(httpsim.NewRequest("/stream", "svc").MarshalClose()) },
		OnData:        func(_ *tcp.Conn, d []byte) { got = append(got, d...) },
		OnPeerClose:   func(*tcp.Conn) { peerClosed = true },
		OnFail:        func(_ *tcp.Conn, err error) { failed = err },
	}, tcp.DefaultConfig())
	c.Net.RunFor(time.Second) // the request reaches the backend, which waits for the FIN
	tb.FailBusiest(1)
	c.Net.RunFor(time.Second) // the muxes withdraw the dead owner
	conn.Close()
	c.Net.RunFor(10 * time.Second) // far inside FlowIdleTimeout: only the linger closes the copy

	if failed != nil || !peerClosed || !bytes.Equal(got, want) {
		t.Fatalf("client got %d of %d bytes, the backend's FIN %v, error %v", len(got), len(want), peerClosed, failed)
	}
	if err := settled(tb); err != nil {
		t.Fatalf("10 s after the client's FIN: %v", err)
	}
}
