package core

import (
	"testing"
	"time"

	"repro/internal/l4lb"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcpstore"
)

// benchTunnelSetup builds an instance with one synthetic flow already in
// the tunnel phase, so the benchmark isolates the per-packet translation
// fast path (dispatch, sequence rewrite, SNAT forward) from connection
// establishment.
func benchTunnelSetup(n *netsim.Network) (*Instance, *flow) {
	instHost := netsim.NewHost(n, 0x0a000010)
	lb := l4lb.New(n, l4lb.DefaultConfig())
	store := tcpstore.New(instHost, nil, tcpstore.DefaultConfig())
	in := NewInstance(instHost, lb, store, DefaultConfig())

	f := in.newFlow(flow{
		vip:          netsim.HostPort{IP: 0x0a0000fe, Port: 80},
		client:       netsim.HostPort{IP: 0xc0a80001, Port: 40000},
		server:       netsim.HostPort{IP: 0x0a000020, Port: 8080},
		snat:         netsim.HostPort{IP: 0x0a0000fe, Port: 20001},
		clientISN:    1000,
		c:            5000,
		s:            9000,
		delta:        ^uint32(3999), // 5000 - 9000 in sequence space
		state:        stateTunnel,
		fromClient:   assembler{next: 1001},
		toClientNext: 5001,
	})
	in.flows.put(f.clientTuple(), f)
	in.flows.put(f.serverTuple(), f)

	// Sinks for both forwarding directions release the pooled packets.
	sink := netsim.NodeFunc(func(pkt *netsim.Packet) { n.ReleasePacket(pkt) })
	n.Attach(f.server.IP, sink)
	n.Attach(f.client.IP, sink)
	return in, f
}

// BenchmarkFlowFastPath measures one tunneled client data packet through
// the instance: flow lookup, header rewrite, SNAT bookkeeping, and the
// forwarded packet's delivery. This is the steady-state per-packet cost
// of every established connection the balancer carries.
func BenchmarkFlowFastPath(b *testing.B) {
	n := netsim.New(42)
	in, f := benchTunnelSetup(n)
	payload := make([]byte, 512)
	seq := f.fromClient.next

	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := n.AllocPacket()
		pkt.Src, pkt.Dst = f.client, f.vip
		pkt.Flags = netsim.FlagACK
		pkt.Seq, pkt.Ack = seq, f.toClientNext
		pkt.Window = 1 << 20
		pkt.Payload = payload
		seq += uint32(len(payload))
		in.handlePacket(pkt)
		n.Step() // deliver the forwarded packet to the backend sink
	}
}

// TestFlowFastPathAllocFree locks in the zero-allocation tunnel path:
// with warm pools, translating and forwarding one client packet must not
// allocate.
func TestFlowFastPathAllocFree(t *testing.T) {
	n := netsim.New(7)
	in, f := benchTunnelSetup(n)
	payload := make([]byte, 512)
	seq := f.fromClient.next
	send := func() {
		pkt := n.AllocPacket()
		pkt.Src, pkt.Dst = f.client, f.vip
		pkt.Flags = netsim.FlagACK
		pkt.Seq, pkt.Ack = seq, f.toClientNext
		pkt.Window = 1 << 20
		pkt.Payload = payload
		seq += uint32(len(payload))
		in.handlePacket(pkt)
		n.Step()
	}
	for i := 0; i < 64; i++ {
		send() // warm pools and per-VIP stats entries
	}
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Fatalf("tunnel fast path allocates %.1f objects/op, want 0", allocs)
	}
	_ = time.Duration(0)
}

// benchStorageSetup builds an instance whose TCPStore client talks to
// simulated memcached servers, plus one tunnel-phase flow, so a benchmark
// can drive the full storage write path: record marshal, flow keys, batch
// grouping, protocol encode, simulated TCP delivery, server-side parse and
// engine insert, reply, and barrier resolution.
func benchStorageSetup(n *netsim.Network, nServers int) (*Instance, *flow) {
	var servers []netsim.HostPort
	for i := 0; i < nServers; i++ {
		h := netsim.NewHost(n, netsim.IPv4(10, 0, 3, byte(i+1)))
		memcache.NewSimServer(h, memcache.DefaultPort, memcache.DefaultSimServerConfig())
		servers = append(servers, netsim.HostPort{IP: h.IP(), Port: memcache.DefaultPort})
	}
	instHost := netsim.NewHost(n, 0x0a000010)
	lb := l4lb.New(n, l4lb.DefaultConfig())
	store := tcpstore.New(instHost, servers, tcpstore.DefaultConfig())
	in := NewInstance(instHost, lb, store, DefaultConfig())

	f := in.newFlow(flow{
		vip:       netsim.HostPort{IP: 0x0a0000fe, Port: 80},
		client:    netsim.HostPort{IP: 0xc0a80001, Port: 40000},
		server:    netsim.HostPort{IP: 0x0a000020, Port: 8080},
		snat:      netsim.HostPort{IP: 0x0a0000fe, Port: 20001},
		clientISN: 1000, c: 5000, s: 9000,
		delta:       ^uint32(3999),
		state:       stateTunnel,
		backendName: "be-1",
	})
	in.flows.put(f.clientTuple(), f)
	in.flows.put(f.serverTuple(), f)
	return in, f
}

// BenchmarkStorageWritePath measures one storage-b shaped barrier write
// end to end: both tuple-oriented records marshalled, keyed, batched into
// per-replica msets, carried over simulated TCP, parsed and stored by the
// memcached engine, and the barrier commit run on the reply. This is the
// hottest cross-package path in the repro — every flow crosses it at
// least twice.
func BenchmarkStorageWritePath(b *testing.B) {
	n := netsim.New(42)
	in, f := benchStorageSetup(n, 3)
	done := false
	commit := func(*flow) { done = true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		in.writeBarrier(f, in.barrierEntries(f, PhaseTunnel, true), commit, nil)
		for !done {
			n.Step()
		}
	}
}

// TestOneLingerTimerPerClose: every packet after the second FIN — the
// close's final ACK always is one — reaches maybeFinish; only the first
// may arm the finLinger timer, and the flow still goes finLinger after
// that first one.
func TestOneLingerTimerPerClose(t *testing.T) {
	n := netsim.New(7)
	in, f := benchTunnelSetup(n)
	notes := CountNotes(t, n, nil)
	send := func(src, dst netsim.HostPort, flags netsim.TCPFlags) {
		pkt := n.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Flags = src, dst, flags
		in.handlePacket(pkt)
		n.RunFor(100 * time.Millisecond) // the forwarded packet reaches its sink
	}
	send(f.client, f.vip, netsim.FlagFIN|netsim.FlagACK)
	if n.Pending() != 0 {
		t.Fatalf("%d events pending after one FIN, want 0", n.Pending())
	}
	send(f.server, f.snat, netsim.FlagFIN|netsim.FlagACK)
	closed := n.Now() - 100*time.Millisecond
	send(f.client, f.vip, netsim.FlagACK)
	send(f.server, f.snat, netsim.FlagACK)
	if n.Pending() != 1 {
		t.Fatalf("%d timers pending after the close, want the one linger timer", n.Pending())
	}
	n.Run(closed + finLinger - 1)
	if notes.Of(in.IP(), "close") != 0 {
		t.Fatal("flow torn down before finLinger had passed")
	}
	n.Run(closed + finLinger)
	if flows := notes.Of(in.IP(), "close"); flows != 1 || n.Pending() != 0 {
		t.Fatalf("finLinger after the second FIN: %d flows closed, %d events pending; want 1 and 0", flows, n.Pending())
	}
}

// TestIdleTimerPeriodAndAllocs: the idle timer comes round every
// FlowIdleTimeout, tears the flow down the first time it finds it idle
// that long, and re-arms without allocating.
func TestIdleTimerPeriodAndAllocs(t *testing.T) {
	n := netsim.New(7)
	in, f := benchTunnelSetup(n)
	idle := in.cfg.FlowIdleTimeout
	in.armIdle(f)
	if allocs := testing.AllocsPerRun(20, func() {
		f.touch(n.Now() + idle/2)
		n.RunFor(idle)
	}); allocs != 0 {
		t.Fatalf("re-arming the idle timer allocates %.1f objects, want 0", allocs)
	}
	// Last touched half a period before the timer came round: it must
	// come round once more, a full period later, and only then close.
	notes := CountNotes(t, n, nil)
	n.RunFor(idle - 1)
	if closed := notes.Of(in.IP(), "close"); closed != 0 || n.Pending() != 1 {
		t.Fatalf("before the second period ends: %d flows closed, %d timers pending; want 0 and 1", closed, n.Pending())
	}
	n.RunFor(1)
	if closed := notes.Of(in.IP(), "close"); closed != 1 || n.Pending() != 0 {
		t.Fatalf("a full idle period after the last re-arm: %d flows closed, %d timers pending; want 1 and 0", closed, n.Pending())
	}
}
