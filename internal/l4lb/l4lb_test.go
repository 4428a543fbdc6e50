package l4lb

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
)

var (
	vip    = netsim.IPv4(10, 255, 0, 1)
	inst1  = netsim.IPv4(10, 0, 1, 1)
	inst2  = netsim.IPv4(10, 0, 1, 2)
	inst3  = netsim.IPv4(10, 0, 1, 3)
	client = netsim.IPv4(100, 0, 0, 1)
	server = netsim.IPv4(10, 0, 2, 1)
)

// collector records packets delivered to an instance IP.
type collector struct {
	got []*netsim.Packet
}

func (c *collector) HandlePacket(pkt *netsim.Packet) { c.got = append(c.got, pkt) }

func setup(seed int64, cfg Config, instances ...netsim.IP) (*netsim.Network, *LB, map[netsim.IP]*collector) {
	n := netsim.New(seed)
	lb := New(n, cfg)
	lb.AddVIP(vip)
	cols := make(map[netsim.IP]*collector)
	for _, ip := range instances {
		c := &collector{}
		cols[ip] = c
		n.Attach(ip, c)
	}
	lb.SetMappingNow(vip, instances)
	return n, lb, cols
}

func clientPkt(port uint16) *netsim.Packet {
	return &netsim.Packet{
		Src:   netsim.HostPort{IP: client, Port: port},
		Dst:   netsim.HostPort{IP: vip, Port: 80},
		Flags: netsim.FlagSYN,
	}
}

func TestVIPForwardsToInstance(t *testing.T) {
	n, _, cols := setup(1, DefaultConfig(), inst1)
	n.Send(clientPkt(1000))
	n.RunUntilIdle(100)
	if len(cols[inst1].got) != 1 {
		t.Fatalf("instance got %d packets", len(cols[inst1].got))
	}
	pkt := cols[inst1].got[0]
	if pkt.Outer == nil || pkt.Outer.Dst != inst1 || pkt.Outer.Src != vip {
		t.Fatalf("missing/wrong encap: %v", pkt)
	}
	if pkt.Dst.IP != vip {
		t.Fatalf("inner destination rewritten: %v", pkt.Dst)
	}
}

func TestFlowAffinity(t *testing.T) {
	n, _, cols := setup(2, DefaultConfig(), inst1, inst2, inst3)
	// All packets of one flow must hit the same instance.
	for i := 0; i < 10; i++ {
		n.Send(clientPkt(1000))
	}
	n.RunUntilIdle(1000)
	total := 0
	for _, c := range cols {
		if len(c.got) > 0 && len(c.got) != 10 {
			t.Fatalf("flow split across instances: %d", len(c.got))
		}
		total += len(c.got)
	}
	if total != 10 {
		t.Fatalf("delivered %d", total)
	}
}

func TestFlowsSpreadAcrossInstances(t *testing.T) {
	n, _, cols := setup(3, DefaultConfig(), inst1, inst2, inst3)
	for p := uint16(1); p <= 300; p++ {
		n.Send(clientPkt(p))
	}
	n.RunUntilIdle(10000)
	for ip, c := range cols {
		frac := float64(len(c.got)) / 300
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("instance %v got fraction %.2f, want ~1/3", ip, frac)
		}
	}
}

func TestNoInstancesDrops(t *testing.T) {
	n, lb, _ := setup(4, DefaultConfig())
	n.Send(clientPkt(1))
	n.RunUntilIdle(100)
	if lb.NoInstanceDrops != 1 {
		t.Fatalf("NoInstanceDrops = %d", lb.NoInstanceDrops)
	}
}

func TestRemoveInstanceRehashesOnlyItsFlows(t *testing.T) {
	n, lb, cols := setup(5, DefaultConfig(), inst1, inst2, inst3)
	// Establish affinity for many flows.
	assigned := make(map[uint16]netsim.IP)
	for p := uint16(1); p <= 200; p++ {
		n.Send(clientPkt(p))
	}
	n.RunUntilIdle(10000)
	for ip, c := range cols {
		for _, pkt := range c.got {
			assigned[pkt.Src.Port] = ip
		}
		c.got = nil
	}
	// Kill inst2.
	lb.RemoveInstance(inst2)
	n.Detach(inst2)
	for p := uint16(1); p <= 200; p++ {
		n.Send(clientPkt(p))
	}
	n.RunUntilIdle(10000)
	moved, stayed := 0, 0
	for ip, c := range cols {
		if ip == inst2 {
			if len(c.got) != 0 {
				t.Fatalf("dead instance still receiving")
			}
			continue
		}
		for _, pkt := range c.got {
			prev := assigned[pkt.Src.Port]
			if prev == inst2 {
				moved++
			} else if prev == ip {
				stayed++
			} else {
				t.Fatalf("flow %d moved from %v to %v though %v is alive", pkt.Src.Port, prev, ip, prev)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no flows from the dead instance were remapped")
	}
	if stayed == 0 {
		t.Fatal("expected surviving flows to stay put")
	}
}

func TestSNATReturnPath(t *testing.T) {
	n, lb, cols := setup(6, DefaultConfig(), inst1, inst2, inst3)
	srvCol := &collector{}
	n.Attach(server, srvCol)
	// inst1 originates a connection to the server using the VIP as source.
	out := &netsim.Packet{
		Src:   netsim.HostPort{IP: vip, Port: 7777},
		Dst:   netsim.HostPort{IP: server, Port: 80},
		Flags: netsim.FlagSYN,
	}
	lb.SendViaSNAT(out, inst1)
	n.RunUntilIdle(100)
	if len(srvCol.got) != 1 {
		t.Fatalf("server got %d packets", len(srvCol.got))
	}
	if srvCol.got[0].Src.IP != vip {
		t.Fatalf("server sees source %v, want VIP", srvCol.got[0].Src)
	}
	// Server replies to the VIP; the reply must reach inst1, not a hash
	// choice.
	reply := &netsim.Packet{
		Src:   netsim.HostPort{IP: server, Port: 80},
		Dst:   netsim.HostPort{IP: vip, Port: 7777},
		Flags: netsim.FlagSYN | netsim.FlagACK,
	}
	n.Send(reply)
	n.RunUntilIdle(100)
	if len(cols[inst1].got) != 1 {
		t.Fatalf("inst1 got %d reply packets", len(cols[inst1].got))
	}
	if len(cols[inst2].got)+len(cols[inst3].got) != 0 {
		t.Fatal("reply leaked to other instances")
	}
}

func TestSNATFailoverAfterInstanceRemoval(t *testing.T) {
	n, lb, cols := setup(7, DefaultConfig(), inst1, inst2)
	out := &netsim.Packet{
		Src: netsim.HostPort{IP: vip, Port: 7777},
		Dst: netsim.HostPort{IP: server, Port: 80},
	}
	n.Attach(server, &collector{})
	lb.SendViaSNAT(out, inst1)
	lb.RemoveInstance(inst1)
	n.Detach(inst1)
	reply := &netsim.Packet{
		Src: netsim.HostPort{IP: server, Port: 80},
		Dst: netsim.HostPort{IP: vip, Port: 7777},
	}
	n.Send(reply)
	n.RunUntilIdle(100)
	if len(cols[inst2].got) != 1 {
		t.Fatalf("surviving instance got %d packets, want the rerouted reply", len(cols[inst2].got))
	}
}

func TestClearSNAT(t *testing.T) {
	n, lb, _ := setup(8, DefaultConfig(), inst1)
	out := &netsim.Packet{
		Src: netsim.HostPort{IP: vip, Port: 7777},
		Dst: netsim.HostPort{IP: server, Port: 80},
	}
	n.Attach(server, &collector{})
	lb.SendViaSNAT(out, inst1)
	if lb.AffinityCount() != 1 {
		t.Fatalf("affinity = %d", lb.AffinityCount())
	}
	lb.ClearSNAT(netsim.FourTuple{
		Src: netsim.HostPort{IP: server, Port: 80},
		Dst: netsim.HostPort{IP: vip, Port: 7777},
	})
	if lb.AffinityCount() != 0 {
		t.Fatalf("affinity after clear = %d", lb.AffinityCount())
	}
}

func TestStaggeredMappingUpdate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdateStagger = 400 * time.Millisecond
	n, lb, cols := setup(9, cfg, inst1)
	c2 := &collector{}
	cols[inst2] = c2
	n.Attach(inst2, c2)
	// Switch the VIP from inst1 to inst2 with stagger; during the window
	// new flows may land on either instance depending on which mux they
	// hash to.
	lb.SetMapping(vip, []netsim.IP{inst2})
	sawOld, sawNew := false, false
	for p := uint16(1); p <= 200; p++ {
		n.Send(clientPkt(p))
		n.RunFor(2 * time.Millisecond)
	}
	n.RunUntilIdle(100000)
	if len(cols[inst1].got) > 0 {
		sawOld = true
	}
	if len(cols[inst2].got) > 0 {
		sawNew = true
	}
	if !sawOld || !sawNew {
		t.Fatalf("staggered update not observed: old=%v new=%v", sawOld, sawNew)
	}
	// After convergence, fresh flows must all land on inst2.
	cols[inst1].got = nil
	cols[inst2].got = nil
	for p := uint16(1000); p <= 1100; p++ {
		n.Send(clientPkt(p))
	}
	n.RunUntilIdle(100000)
	if len(cols[inst1].got) != 0 {
		t.Fatalf("old instance still receiving after convergence: %d", len(cols[inst1].got))
	}
}

func TestRendezvousPickProperties(t *testing.T) {
	insts := []netsim.IP{inst1, inst2, inst3}
	f := func(srcIP uint32, srcPort uint16) bool {
		ft := netsim.FourTuple{
			Src: netsim.HostPort{IP: netsim.IP(srcIP), Port: srcPort},
			Dst: netsim.HostPort{IP: vip, Port: 80},
		}
		pick := Rendezvous(ft, insts)
		// Deterministic.
		if Rendezvous(ft, insts) != pick {
			return false
		}
		// Monotone: removing a non-chosen instance must not change the pick.
		var reduced []netsim.IP
		for _, ip := range insts {
			if ip != pick {
				reduced = append(reduced, ip)
			}
		}
		sub := append([]netsim.IP{pick}, reduced[:1]...)
		return Rendezvous(ft, sub) == pick
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousBalance(t *testing.T) {
	insts := []netsim.IP{inst1, inst2, inst3}
	counts := map[netsim.IP]int{}
	for p := uint16(1); p <= 3000; p++ {
		ft := netsim.FourTuple{
			Src: netsim.HostPort{IP: client, Port: p},
			Dst: netsim.HostPort{IP: vip, Port: 80},
		}
		counts[Rendezvous(ft, insts)]++
	}
	for ip, c := range counts {
		frac := float64(c) / 3000
		if frac < 0.25 || frac > 0.42 {
			t.Errorf("instance %v fraction %.3f, want ~0.333", ip, frac)
		}
	}
}
