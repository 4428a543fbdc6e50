package tcp

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/netsim"
)

// TestTortureTransfer runs bulk transfers under combined impairments —
// heavy jitter (which reorders segments in flight), random loss on both
// data and control packets, and duplication — and asserts byte-exact
// delivery. This exercises the reassembly and retransmission machinery
// far beyond the targeted unit tests. Each case runs with the payload
// copied into the send buffer and with all but its first 100 bytes lent to
// the connection in place.
func TestTortureTransfer(t *testing.T) {
	cases := []struct {
		name   string
		jitter float64
		loss   float64
		dup    float64
		size   int
	}{
		{"reorder-only", 0.9, 0, 0, 120 * 1024},
		{"loss-only", 0, 0.03, 0, 120 * 1024},
		{"dup-only", 0, 0, 0.05, 120 * 1024},
		{"everything", 0.7, 0.02, 0.03, 150 * 1024},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runTorture(t, seed, tc.jitter, tc.loss, tc.dup, tc.size, false)
				runTorture(t, seed, tc.jitter, tc.loss, tc.dup, tc.size, true)
			}
		})
	}
}

func runTorture(t *testing.T, seed int64, jitter, loss, dup float64, size int, static bool) {
	t.Helper()
	n := netsim.New(seed)
	n.PoisonReleasedBufs()
	n.SetJitter(jitter)
	rng := n.Rand()
	if loss > 0 {
		n.SetDropFunc(func(pkt *netsim.Packet) bool { return rng.Float64() < loss })
	}
	if dup > 0 {
		seen := map[*netsim.Packet]bool{}
		n.SetTracer(func(ev netsim.TraceEvent) {
			if !ev.Dropped && !seen[ev.Packet] && rng.Float64() < dup {
				clone := ev.Packet.Clone()
				seen[clone] = true
				n.Send(clone)
			}
		})
	}
	client := netsim.NewHost(n, netsim.IPv4(100, 0, 0, 1))
	server := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))

	payload, sent := object(size, byte(seed)), object(size, byte(seed))
	var got bytes.Buffer
	var echoed bytes.Buffer
	Listen(server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnData: func(c *Conn, d []byte) {
				echoed.Write(d)
				c.Write(d)
			},
			OnPeerClose: func(c *Conn) { c.Close() },
		}
	}, DefaultConfig())
	done := false
	Dial(client, netsim.HostPort{IP: server.IP(), Port: 80}, Callbacks{
		OnEstablished: func(c *Conn) {
			if static {
				c.WriteStatic(sent[:100], sent[100:])
			} else {
				c.Write(sent)
			}
			c.Close()
		},
		OnData:      func(c *Conn, d []byte) { got.Write(d) },
		OnPeerClose: func(c *Conn) { done = true },
	}, DefaultConfig())
	n.RunUntilIdle(5_000_000)
	if !bytes.Equal(sent, payload) {
		t.Fatalf("seed %d: the payload lent to the connection was modified, first at %d", seed, firstDiff(sent, payload))
	}
	if !bytes.Equal(echoed.Bytes(), payload) {
		t.Fatalf("seed %d: server stream corrupted (%d vs %d bytes, first diff at %d)",
			seed, echoed.Len(), len(payload), firstDiff(echoed.Bytes(), payload))
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("seed %d: echo stream corrupted (%d vs %d bytes, first diff at %d)",
			seed, got.Len(), len(payload), firstDiff(got.Bytes(), payload))
	}
	_ = done // under loss the final FIN exchange may retry past the event cap; data integrity is the invariant
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestTortureManyConnectionsUnderLoss opens many concurrent connections
// through a lossy network; each must deliver its distinct payload intact.
func TestTortureManyConnectionsUnderLoss(t *testing.T) {
	n := netsim.New(9)
	n.PoisonReleasedBufs()
	rng := n.Rand()
	n.SetDropFunc(func(pkt *netsim.Packet) bool { return rng.Float64() < 0.02 })
	server := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
	results := map[string][]byte{}
	Listen(server, 80, func(c *Conn) Callbacks {
		var buf bytes.Buffer
		return Callbacks{
			OnData:      func(c *Conn, d []byte) { buf.Write(d) },
			OnPeerClose: func(c *Conn) { results[c.remote.String()] = buf.Bytes(); c.Close() },
		}
	}, DefaultConfig())

	const conns = 12
	payloads := map[string][]byte{}
	for i := 0; i < conns; i++ {
		client := netsim.NewHost(n, netsim.IPv4(100, 0, byte(i+1), 1))
		payload := []byte(fmt.Sprintf("conn-%d:", i))
		payload = append(payload, bytes.Repeat([]byte{byte(i)}, 20_000)...)
		var c *Conn
		c = Dial(client, netsim.HostPort{IP: server.IP(), Port: 80}, Callbacks{
			OnEstablished: func(cc *Conn) { cc.Write(payload); cc.Close() },
		}, DefaultConfig())
		payloads[c.LocalAddr().String()] = payload
	}
	n.RunUntilIdle(5_000_000)
	if len(results) != conns {
		t.Fatalf("only %d/%d connections completed", len(results), conns)
	}
	for addr, want := range payloads {
		if got, ok := results[addr]; !ok || !bytes.Equal(got, want) {
			t.Fatalf("connection %s corrupted or missing (%d vs %d bytes)", addr, len(got), len(want))
		}
	}
}
