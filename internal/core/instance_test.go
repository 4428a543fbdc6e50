package core

import (
	"testing"
	"time"

	"repro/internal/l4lb"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcpstore"
)

// TestPendingQueueExpires: an orphan's recovery queue whose store lookup
// outlives pendingExpiry is dropped, its packets counted as lookup
// misses, and the lookup's late answer finds nothing left to resolve.
func TestPendingQueueExpires(t *testing.T) {
	n := netsim.New(3)
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 3, 1))
	memcache.NewSimServer(sh, memcache.DefaultPort, memcache.DefaultSimServerConfig())
	sh.Detach() // the lookup is wedged: no replica answers
	scfg := tcpstore.DefaultConfig()
	scfg.OpTimeout = 2 * pendingExpiry
	h := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 16))
	in := NewInstance(h, l4lb.New(n, l4lb.DefaultConfig()), tcpstore.New(h, []netsim.HostPort{{IP: sh.IP(), Port: memcache.DefaultPort}}, scfg), DefaultConfig())
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
	n.RunFor(scfg.OpTimeout)
	if in.LookupMisses != 3 || in.FlowCount() != 0 {
		t.Fatalf("after the lookup timed out: %d lookup misses, %d flow entries; want 3 and 0", in.LookupMisses, in.FlowCount())
	}
}

// TestReleaseVIPFlowsQuarantinesPorts: a VIP whose flows migrate away is
// released locally — the flows leave the index without a delete, and a
// tunnel's SNAT port stays reserved.
func TestReleaseVIPFlowsQuarantinesPorts(t *testing.T) {
	n := netsim.New(5)
	in, f := benchTunnelSetup(n)
	in.snatInUse[f.snat.Port] = true
	f.touch(3 * time.Second)
	if last, ok := in.VIPLastActive(f.vip.IP); in.VIPFlowCount(f.vip.IP) != 1 || !ok || last != 3*time.Second {
		t.Fatalf("VIPFlowCount %d, VIPLastActive %v %v; want 1, 3s true", in.VIPFlowCount(f.vip.IP), last, ok)
	}
	if got := in.ReleaseVIPFlows(f.vip.IP); got != 1 || in.FlowCount() != 0 || in.SNATQuarantined != 1 || !in.snatInUse[f.snat.Port] {
		t.Fatalf("released %d, %d entries left, %d quarantined, port held %v; want 1, 0, 1, true", got, in.FlowCount(), in.SNATQuarantined, in.snatInUse[f.snat.Port])
	}
	if _, ok := in.VIPLastActive(f.vip.IP); ok || in.FlowsClosed != 0 {
		t.Fatalf("a released flow is still active, or counted closed (%d)", in.FlowsClosed)
	}
}
