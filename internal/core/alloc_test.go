package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/httpsim"
	"repro/internal/l4lb"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/stateless"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
)

// Alloc budgets for the storage write path. These lock in the tentpole:
// once pools are warm, persisting flow state — key render, record encode,
// batch grouping, protocol encode, simulated TCP, server parse, engine
// store, reply parse, and barrier resolution — allocates nothing.

func TestAppendFlowKeyAllocFree(t *testing.T) {
	tuple := netsim.FourTuple{
		Src: netsim.HostPort{IP: 0xc0a80001, Port: 40000},
		Dst: netsim.HostPort{IP: 0x0a0000fe, Port: 80},
	}
	buf := make([]byte, 0, FlowKeyLen)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendFlowKey(buf[:0], tuple)
	})
	if allocs != 0 {
		t.Fatalf("AppendFlowKey allocates %.1f objects/op, want 0", allocs)
	}
	if got, want := string(buf), "yoda:f:c0a80001:9c40:0a0000fe:0050"; got != want {
		t.Fatalf("AppendFlowKey = %q, want %q", got, want)
	}
}

func TestAppendMarshalAllocFree(t *testing.T) {
	r := Record{
		Phase:       PhaseTunnel,
		Client:      netsim.HostPort{IP: 0xc0a80001, Port: 40000},
		VIP:         netsim.HostPort{IP: 0x0a0000fe, Port: 80},
		ClientISN:   1000,
		Server:      netsim.HostPort{IP: 0x0a000020, Port: 8080},
		SNAT:        netsim.HostPort{IP: 0x0a0000fe, Port: 20001},
		C:           5000,
		S:           9000,
		Delta:       ^uint32(3999),
		KeepAlive:   true,
		BackendName: "be-1",
		TLS:         &TLSState{ServerHelloLen: 1234},
	}
	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(200, func() {
		buf = r.AppendMarshal(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendMarshal allocates %.1f objects/op, want 0", allocs)
	}
	if got, want := string(buf), string(r.Marshal()); got != want {
		t.Fatalf("AppendMarshal bytes differ from Marshal: %q vs %q", got, want)
	}
}

// barrierWriteAllocs measures one full barrier write round trip at the
// given phase through warm pools.
func barrierWriteAllocs(t *testing.T, phase FlowPhase, bothTuples bool) float64 {
	t.Helper()
	n := netsim.New(42)
	in, f := benchStorageSetup(n, 3)
	done := false
	commit := func(*flow) { done = true }
	write := func() {
		done = false
		in.writeBarrier(f, in.barrierEntries(f, phase, bothTuples), commit, nil)
		for !done {
			n.Step()
		}
	}
	for i := 0; i < 1024; i++ {
		write() // warm connection pools, engine nodes, op pools
	}
	// Cancelled timer records (op timeouts, TCP retransmits) recycle only
	// when the virtual clock passes their deadline. Drain the network so
	// every parked record returns to the event freelist; the measured runs
	// then draw from the pool instead of allocating — which is the actual
	// steady state, where writes arrive continuously and recycling keeps
	// pace with arming.
	n.RunUntilIdle(1 << 22)
	return testing.AllocsPerRun(100, write)
}

func TestBarrierWriteStorageAAllocFree(t *testing.T) {
	if allocs := barrierWriteAllocs(t, PhaseConn, false); allocs != 0 {
		t.Fatalf("storage-a barrier write allocates %.1f objects/op, want 0", allocs)
	}
}

func TestBarrierWriteStorageBAllocFree(t *testing.T) {
	if allocs := barrierWriteAllocs(t, PhaseTunnel, true); allocs != 0 {
		t.Fatalf("storage-b barrier write allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBarrierBatchFitsOneMSS: the server charges an mset by the records of
// the Feed that completes it (Session.Ops), which equals what the figures
// were calibrated on only while every batch arrives in one segment. The
// largest batch the barrier writes — storage-b for both tuples, TLS
// trailer, keep-alive switch, a 255-byte backend name, both records on one
// server — must therefore leave the store client as a single segment.
func TestBarrierBatchFitsOneMSS(t *testing.T) {
	n := netsim.New(7)
	in, f := benchStorageSetup(n, 1) // both tuples' records go to the one server
	f.keepAlive = true
	f.backendName = strings.Repeat("b", 255)
	f.tls = &flowTLS{serverHelloLen: 65535}

	var segments [][]byte
	n.SetTracer(func(ev netsim.TraceEvent) {
		if p := ev.Packet; p.Dst.Port == memcache.DefaultPort && len(p.Payload) > 0 {
			segments = append(segments, append([]byte(nil), p.Payload...))
		}
	})
	committed := false
	in.writeBarrier(f, in.barrierEntries(f, PhaseTunnel, true), func(*flow) { committed = true }, nil)
	n.RunUntilIdle(1 << 16)

	if !committed || in.Barrier.Commits != 1 {
		t.Fatalf("committed=%v barrier=%+v, want one clean commit", committed, in.Barrier)
	}
	mss := tcp.DefaultConfig().MSS
	if got := tcpstore.DefaultConfig().TCP.MSS; got != mss {
		t.Fatalf("store client MSS %d, default %d", got, mss)
	}
	if len(segments) != 1 {
		t.Fatalf("the batch left the store client as %d segments, want 1", len(segments))
	}
	if seg := segments[0]; !bytes.HasPrefix(seg, []byte("mset 2\r\n")) || len(seg) > mss {
		t.Fatalf("the segment is %d bytes starting %.8q, want one mset 2 of at most %d", len(seg), seg, mss)
	}
	t.Logf("largest barrier batch: %d of %d bytes", len(segments[0]), mss)
}

// flowAllocs drives whole flows through one instance — the client's SYN,
// storage-a, the request, the rule scan and its lookup delay, the backend
// dial, storage-b, the response, both FINs, the linger and the teardown's
// deletes — between a scripted client and backend, with one memcached
// server answering the barrier writes, and returns what one flow
// allocates once the pools are warm. hybrid runs the flow in hybrid
// recovery mode, where it is derivable and skips both barriers.
func flowAllocs(t *testing.T, hybrid bool) float64 {
	t.Helper()
	n := netsim.New(11)
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 3, 1))
	memcache.NewSimServer(sh, memcache.DefaultPort, memcache.DefaultSimServerConfig())
	instHost := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 16))
	store := tcpstore.New(instHost, []netsim.HostPort{{IP: sh.IP(), Port: memcache.DefaultPort}}, tcpstore.DefaultConfig())
	vip := netsim.HostPort{IP: netsim.IPv4(10, 0, 0, 254), Port: 80}
	backend := netsim.HostPort{IP: netsim.IPv4(10, 0, 2, 1), Port: 80}
	rs := []rules.Rule{{Name: "all", Priority: 1, Match: rules.Match{URLGlob: "*"},
		Action: rules.Action{Type: rules.ActionSplit, Split: []rules.WeightedBackend{
			{Backend: rules.Backend{Name: "srv", Addr: backend}, Weight: 1}}}}}
	cfg := DefaultConfig()
	backendISN := func(netsim.HostPort) uint32 { return 777 }
	if hybrid {
		tab := stateless.New(7)
		tab.RegisterRange(instHost.IP(), cfg.SNATBase, cfg.SNATCount)
		pool, _ := stateless.PoolFromRules(rs)
		tab.SetVIP(vip.IP, stateless.VIPEntry{Instances: []netsim.IP{instHost.IP()}, Pool: pool})
		cfg.Hybrid = tab
		backendISN = func(snat netsim.HostPort) uint32 { return tcp.DeterministicISN(tab.ISNKey(), backend, snat) }
	}
	in := NewInstance(instHost, l4lb.New(n, l4lb.DefaultConfig()), store, cfg)
	if err := in.InstallRules(vip.IP, rs); err != nil {
		t.Fatal(err)
	}
	n.Attach(vip.IP, netsim.NodeFunc(in.HandleSegment)) // the mux's place

	req := httpsim.NewRequest("/obj", "svc").MarshalClose()
	resp := httpsim.NewResponse(200, make([]byte, 2<<10)).Marshal()
	const clientISN = 1000
	send := func(src, dst netsim.HostPort, flags netsim.TCPFlags, seq, ack uint32, payload []byte) {
		p := n.AllocPacket()
		p.Src, p.Dst, p.Flags, p.Seq, p.Ack, p.Window, p.Payload = src, dst, flags, seq, ack, 1<<20, payload
		n.Send(p)
	}
	client := netsim.HostPort{IP: netsim.IPv4(192, 168, 0, 1)}
	n.Attach(client.IP, netsim.NodeFunc(func(p *netsim.Packet) {
		switch {
		case p.Flags.Has(netsim.FlagSYN | netsim.FlagACK):
			send(p.Dst, p.Src, netsim.FlagACK|netsim.FlagPSH, clientISN+1, p.Seq+1, req)
		case p.Flags.Has(netsim.FlagFIN):
			send(p.Dst, p.Src, netsim.FlagACK|netsim.FlagFIN, clientISN+1+uint32(len(req)), p.SeqEnd(), nil)
		}
		n.ReleasePacket(p)
	}))
	n.Attach(backend.IP, netsim.NodeFunc(func(p *netsim.Packet) {
		s := backendISN(p.Src)
		switch {
		case p.Flags.Has(netsim.FlagSYN):
			send(p.Dst, p.Src, netsim.FlagSYN|netsim.FlagACK, s, p.Seq+1, nil)
		case len(p.Payload) > 0:
			send(p.Dst, p.Src, netsim.FlagACK|netsim.FlagPSH|netsim.FlagFIN, s+1, p.SeqEnd(), resp)
		case p.Flags.Has(netsim.FlagFIN):
			send(p.Dst, p.Src, netsim.FlagACK, s+2+uint32(len(resp)), p.SeqEnd(), nil)
		}
		n.ReleasePacket(p)
	}))

	flows := 0
	flow := func() {
		client.Port = 1024 + uint16(flows%60000)
		flows++
		send(client, vip, netsim.FlagSYN, clientISN, 0, nil)
		n.RunUntilIdle(1 << 20)
	}
	for i := 0; i < 64; i++ {
		flow() // warm the pools, the flow index and the store's connection
	}
	allocs := testing.AllocsPerRun(100, flow)
	if in.FlowsClosed != uint64(flows) || in.FlowCount() != 0 || in.ConnLat.Count() != flows {
		t.Fatalf("%d flows run, %d closed, %d tunnelled, %d flow entries left", flows, in.FlowsClosed, in.ConnLat.Count(), in.FlowCount())
	}
	wantSkipped := uint64(0)
	if hybrid {
		wantSkipped = 2 * uint64(flows)
	}
	if in.Barrier.Skipped != wantSkipped {
		t.Fatalf("%d barriers skipped over %d flows, want %d", in.Barrier.Skipped, flows, wantSkipped)
	}
	return allocs
}

// TestFlowAllocBudget is core's line of the allocation ledger (DESIGN.md,
// "What a request allocates"). A flow allocates 5 objects in core: the
// flow, its idle-timer and one-shot-timer callbacks, the request buffer
// and the request head's string copy. In paper mode the memcached
// answering storage-a and storage-b adds the two key strings of the
// records it has not held before (the client tuple's and the server
// tuple's); hybrid mode writes no record.
func TestFlowAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		hybrid bool
		budget float64
	}{{"paper", false, 5 + 2}, {"hybrid", true, 5}} {
		if n := flowAllocs(t, c.hybrid); n > c.budget {
			t.Errorf("%s mode: a whole flow allocates %v objects, budget %v", c.name, n, c.budget)
		} else {
			t.Logf("%s mode: %v allocations per flow", c.name, n)
		}
	}
}
