package core

import (
	"testing"
	"time"

	"repro/internal/l4lb"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/stateless"
	"repro/internal/tcpstore"
)

// wedgedInstance returns an instance whose one store server never
// answers: a read fails at OpTimeout, twice pendingExpiry.
func wedgedInstance(cfg Config) (*netsim.Network, *Instance, time.Duration) {
	n := netsim.New(3)
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 3, 1))
	memcache.NewSimServer(sh, memcache.DefaultPort, memcache.DefaultSimServerConfig())
	sh.Detach()
	scfg := tcpstore.DefaultConfig()
	scfg.OpTimeout = 2 * pendingExpiry
	h := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 16))
	return n, NewInstance(h, l4lb.New(n, l4lb.DefaultConfig()), tcpstore.New(h, []netsim.HostPort{{IP: sh.IP(), Port: memcache.DefaultPort}}, scfg), cfg), scfg.OpTimeout
}

// TestPendingQueueExpires: an orphan's recovery queue whose store lookup
// outlives pendingExpiry is dropped, its packets counted as lookup
// misses, and the lookup's late answer finds nothing left to resolve.
func TestPendingQueueExpires(t *testing.T) {
	n, in, opTimeout := wedgedInstance(DefaultConfig())
	for i := 0; i < 3; i++ {
		p := n.AllocPacket()
		p.Src = netsim.HostPort{IP: netsim.IPv4(192, 168, 0, 1), Port: 4000}
		p.Dst = netsim.HostPort{IP: netsim.IPv4(10, 0, 0, 254), Port: 80}
		p.Flags, p.Seq = netsim.FlagACK, uint32(1000+i)
		in.handlePacket(p)
	}
	n.RunFor(pendingExpiry + time.Millisecond)
	if in.LookupMisses != 3 || len(in.pending) != 0 || in.pendingTotal != 0 {
		t.Fatalf("at expiry: %d lookup misses, %d queues holding %d packets; want 3, 0, 0", in.LookupMisses, len(in.pending), in.pendingTotal)
	}
	n.RunFor(opTimeout)
	if in.LookupMisses != 3 || in.FlowCount() != 0 {
		t.Fatalf("after the lookup timed out: %d lookup misses, %d flow entries; want 3 and 0", in.LookupMisses, in.FlowCount())
	}
}

// TestPendingQueueWaitsForItsRead: a recovery queue is recycled with its
// callbacks bound, but not while its store read is in flight, so the
// read's late callback cannot resolve another tuple's queue. A queue that
// expires first, or a knock queue that a client-side orphan confirms
// (hybridKnockConfirm), goes back to the spares only when its read
// answers.
func TestPendingQueueWaitsForItsRead(t *testing.T) {
	vip := netsim.HostPort{IP: netsim.IPv4(10, 0, 0, 254), Port: 80}
	send := func(n *netsim.Network, in *Instance, tuple netsim.FourTuple, seq, ack uint32) {
		p := n.AllocPacket()
		p.Src, p.Dst = tuple.Src, tuple.Dst
		p.Flags, p.Seq, p.Ack = netsim.FlagACK, seq, ack
		in.handlePacket(p) // releases p
	}
	client := func(port uint16) netsim.FourTuple {
		return netsim.FourTuple{Src: netsim.HostPort{IP: netsim.IPv4(192, 168, 0, 1), Port: port}, Dst: vip}
	}
	t.Run("expired", func(t *testing.T) {
		n, in, _ := wedgedInstance(DefaultConfig())
		orphan := func(port uint16) *pendingQueue {
			send(n, in, client(port), 1000, 0)
			return in.pending[client(port)]
		}
		q1 := orphan(4001)
		if q1 == nil {
			t.Fatal("the orphan was not queued")
		}
		n.RunFor(pendingExpiry + time.Millisecond) // q1 expires, its read in flight
		if q2 := orphan(4002); q2 == q1 {
			t.Fatal("an expired queue was reused while its store read was in flight")
		}
		n.RunFor(pendingExpiry) // q1's read times out and files q1; q2 expires
		if q3 := orphan(4003); q3 != q1 {
			t.Fatal("the expired queue was not reused once its read had answered")
		}
		if in.LookupMisses != 2 {
			t.Fatalf("%d lookup misses, want the two expired queues' packets", in.LookupMisses)
		}
	})
	t.Run("knock confirmed", func(t *testing.T) {
		head := netsim.IPv4(10, 0, 0, 15) // the dead instance that held the flow
		tbl := stateless.New(7)
		tbl.SetVIP(vip.IP, stateless.VIPEntry{
			Instances: []netsim.IP{head},
			Pool:      []stateless.Backend{{Name: "srv-1", Addr: netsim.HostPort{IP: netsim.IPv4(10, 0, 2, 1), Port: 80}, Weight: 1}},
		})
		tbl.RegisterRange(head, 30000, 400)
		tbl.MarkDead(head)
		cfg := DefaultConfig()
		cfg.Hybrid = tbl
		n, in, opTimeout := wedgedInstance(cfg)
		ct := client(4001)
		b, _ := tbl.DeriveBackend(vip.IP, ct)
		port, _ := tbl.PreferredPort(head, ct)
		st := netsim.FourTuple{Src: b.Addr, Dst: netsim.HostPort{IP: vip.IP, Port: port}}
		send(n, in, st, 5000, 1001) // the backend knocks; a miss would park it
		kq := in.pending[st]
		if kq == nil || !kq.lookup {
			t.Fatal("the knock was not queued behind a store read")
		}
		send(n, in, ct, 1001, isnHash(ct.Src, ct.Dst)+100) // the client confirms it
		if in.DerivedRecoveries != 1 || in.pending[st] != nil {
			t.Fatalf("%d derived recoveries, knock queue parked: %v; want the knock confirmed", in.DerivedRecoveries, in.pending[st] != nil)
		}
		for q := in.spareQueues.Take(); q != nil; q = in.spareQueues.Take() {
			if q == kq {
				t.Fatal("the knock queue was filed while its store read was in flight")
			}
		}
		n.RunFor(opTimeout + time.Millisecond) // the knock's read and the repair write time out
		filed := false
		for q := in.spareQueues.Take(); q != nil; q = in.spareQueues.Take() {
			filed = filed || q == kq
		}
		if !filed {
			t.Fatal("the knock queue was not filed once its read had answered")
		}
	})
}

// TestReleaseVIPFlowsQuarantinesPorts: a VIP whose flows migrate away is
// released locally — the flows leave the index without a delete, and a
// tunnel's SNAT port stays reserved.
func TestReleaseVIPFlowsQuarantinesPorts(t *testing.T) {
	n := netsim.New(5)
	in, f := benchTunnelSetup(n)
	notes := CountNotes(t, n, nil)
	held := int(f.snat.Port - in.cfg.SNATBase)
	in.snatInUse.add(held)
	f.touch(3 * time.Second)
	if last, ok := in.VIPLastActive(f.vip.IP); in.VIPFlowCount(f.vip.IP) != 1 || !ok || last != 3*time.Second {
		t.Fatalf("VIPFlowCount %d, VIPLastActive %v %v; want 1, 3s true", in.VIPFlowCount(f.vip.IP), last, ok)
	}
	got := in.ReleaseVIPFlows(f.vip.IP)
	if quarantined := notes.Of(in.IP(), "snat quarantine"); got != 1 || in.FlowCount() != 0 || quarantined != 1 || !in.snatInUse.has(held) {
		t.Fatalf("released %d, %d entries left, %d quarantined, port held %v; want 1, 0, 1, true", got, in.FlowCount(), quarantined, in.snatInUse.has(held))
	}
	if _, ok := in.VIPLastActive(f.vip.IP); ok || notes.Of(in.IP(), "close") != 0 {
		t.Fatalf("a released flow is still active, or noted closed (%d)", notes.Of(in.IP(), "close"))
	}
}

// TestLateAdopterHandsPacketsBack: two survivors look an orphan up at
// once, one per tuple orientation, because the mux remapped the client's
// tuple and the backend's independently. The first answer adopts the
// flow and claims both tuples; the second finds the mux routing its tuple
// to the adopter and hands its queued packet back to the mux, so the flow
// is adopted once and each half is relayed by the adopter.
func TestLateAdopterHandsPacketsBack(t *testing.T) {
	n := netsim.New(7)
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 3, 1))
	memcache.NewSimServer(sh, memcache.DefaultPort, memcache.DefaultSimServerConfig())
	lb := l4lb.New(n, l4lb.DefaultConfig())
	vip := netsim.HostPort{IP: netsim.IPv4(10, 0, 0, 254), Port: 80}
	lb.AddVIP(vip.IP)
	var ins []*Instance
	for i := byte(1); i <= 2; i++ {
		h := netsim.NewHost(n, netsim.IPv4(10, 0, 0, i))
		store := tcpstore.New(h, []netsim.HostPort{{IP: sh.IP(), Port: memcache.DefaultPort}}, tcpstore.DefaultConfig())
		ins = append(ins, NewInstance(h, lb, store, DefaultConfig()))
	}
	lb.SetMappingNow(vip.IP, []netsim.IP{ins[0].IP(), ins[1].IP()})
	got := map[netsim.IP]int{} // relayed segments, by receiving endpoint
	f := &flow{vip: vip, server: netsim.HostPort{IP: netsim.IPv4(10, 0, 2, 1), Port: 80},
		snat: netsim.HostPort{IP: vip.IP, Port: 20001}, clientISN: 1000, s: 9000}
	for port := uint16(4000); ; port++ { // halves that the mux sends to different survivors
		f.client = netsim.HostPort{IP: netsim.IPv4(192, 168, 0, 1), Port: port}
		if l4lb.Rendezvous(f.clientTuple(), []netsim.IP{ins[0].IP(), ins[1].IP()}) != l4lb.Rendezvous(f.serverTuple(), []netsim.IP{ins[0].IP(), ins[1].IP()}) {
			break
		}
	}
	f.c = isnHash(f.client, f.vip)
	f.delta = f.c - f.s
	for _, ip := range []netsim.IP{f.client.IP, f.server.IP} {
		n.Attach(ip, netsim.NodeFunc(func(p *netsim.Packet) { got[p.Dst.IP]++; n.ReleasePacket(p) }))
	}
	// The dead owner's storage-b record, under both tuples.
	ins[0].writeBarrier(f, ins[0].barrierEntries(f, PhaseTunnel, true), nil)
	n.RunFor(time.Second)
	send := func(src, dst netsim.HostPort, seq, ack uint32) {
		p := n.AllocPacket()
		p.Src, p.Dst, p.Flags, p.Seq, p.Ack, p.Payload = src, dst, netsim.FlagACK|netsim.FlagPSH, seq, ack, []byte("x")
		n.Send(p)
	}
	// The client's segment crosses the WAN: the backend's is sent once it
	// is queued at its survivor, and queues at the other one while the
	// first lookup is still out.
	send(f.client, f.vip, 1001, f.c+1)
	for len(ins[0].pending)+len(ins[1].pending) == 0 && n.Step() {
	}
	send(f.server, f.snat, f.s+1, 1001)
	for len(ins[0].pending)+len(ins[1].pending) == 1 && n.Step() {
	}
	if len(ins[0].pending) != 1 || len(ins[1].pending) != 1 {
		t.Fatalf("queued lookups: %d and %d, want one at each survivor", len(ins[0].pending), len(ins[1].pending))
	}
	n.RunFor(time.Second)
	adoptions, flows := uint64(0), 0
	for _, in := range ins {
		adoptions += in.Recovered
		flows += in.ClientFlowCount()
	}
	if adoptions != 1 || flows != 1 || got[f.client.IP] != 1 || got[f.server.IP] != 1 {
		t.Fatalf("%d adoptions, %d flows, %d segments relayed to the client and %d to the backend; want 1 of each", adoptions, flows, got[f.client.IP], got[f.server.IP])
	}
	adopter, _ := lb.Holder(f.clientTuple())
	if h, _ := lb.Holder(f.serverTuple()); h != adopter {
		t.Fatalf("the client tuple is held by %v, the server tuple by %v", adopter, h)
	}
}
