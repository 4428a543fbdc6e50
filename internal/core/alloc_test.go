package core

import (
	"bytes"
	"fmt"
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
		if p := ev.Packet; p != nil && p.Dst.Port == memcache.DefaultPort && len(p.Payload) > 0 {
			segments = append(segments, append([]byte(nil), p.Payload...))
		}
	})
	committed := false
	in.writeBarrier(f, in.barrierEntries(f, PhaseTunnel, true), func(*flow) { committed = true }, nil)
	n.RunUntilIdle(1 << 16)

	if !committed || in.Barrier.Commits != 1 {
		t.Fatalf("committed=%v barrier=%+v, want one clean commit", committed, in.Barrier)
	}
	mss := tcp.DefaultConfig().MSS // the store dials with the default
	if len(segments) != 1 {
		t.Fatalf("the batch left the store client as %d segments, want 1", len(segments))
	}
	if seg := segments[0]; !bytes.HasPrefix(seg, []byte("mset 2\r\n")) || len(seg) > mss {
		t.Fatalf("the segment is %d bytes starting %.8q, want one mset 2 of at most %d", len(seg), seg, mss)
	}
	t.Logf("largest barrier batch: %d of %d bytes", len(segments[0]), mss)
}

// script is one instance between a scripted client and scripted
// backends, with one memcached server answering the barrier writes. Its
// flow runs one whole flow to idle — the client's SYN, storage-a, the
// request, the rule scan and its lookup delay, the backend dial,
// storage-b, the response, both FINs, the linger and the teardown's
// deletes. A keepAlive flow sends a second request on the same
// connection, for a second backend: the flow re-dials, writes storage-b
// again and closes there. hybrid runs the instance in hybrid recovery
// mode, where a plain flow is derivable and skips both barriers.
// dupSynAck makes each backend answer every SYN twice, as a SYN-ACK
// retransmission that crosses the instance's ACK would.
type script struct {
	n     *netsim.Network
	in    *Instance
	flows int
	run   func()
}

func newScript(t *testing.T, hybrid, keepAlive, dupSynAck bool) *script {
	t.Helper()
	n := netsim.New(11)
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 3, 1))
	memcache.NewSimServer(sh, memcache.DefaultPort, memcache.DefaultSimServerConfig())
	instHost := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 16))
	store := tcpstore.New(instHost, []netsim.HostPort{{IP: sh.IP(), Port: memcache.DefaultPort}}, tcpstore.DefaultConfig())
	vip := netsim.HostPort{IP: netsim.IPv4(10, 0, 0, 254), Port: 80}
	backends := []netsim.HostPort{{IP: netsim.IPv4(10, 0, 2, 1), Port: 80}, {IP: netsim.IPv4(10, 0, 2, 2), Port: 80}}
	split := func(glob string, i int) rules.Rule {
		return rules.Rule{Name: glob, Priority: 1, Match: rules.Match{URLGlob: glob},
			Action: rules.Action{Type: rules.ActionSplit, Split: []rules.WeightedBackend{
				{Backend: rules.Backend{Name: fmt.Sprint("srv-", i), Addr: backends[i]}, Weight: 1}}}}
	}
	rs := []rules.Rule{split("*", 0)}
	reqs := [][]byte{httpsim.NewRequest("/a", "svc").MarshalClose()}
	if keepAlive {
		rs = []rules.Rule{split("/a", 0), split("/b", 1)}
		reqs = [][]byte{httpsim.NewRequest("/a", "svc").Marshal(), httpsim.NewRequest("/b", "svc").Marshal()}
	}
	cfg := DefaultConfig()
	backendISN := func(netsim.HostPort, netsim.HostPort) uint32 { return 777 }
	if hybrid {
		tab := stateless.New(7)
		tab.RegisterRange(instHost.IP(), cfg.SNATBase, cfg.SNATCount)
		pool, _ := stateless.PoolFromRules(rs)
		tab.SetVIP(vip.IP, stateless.VIPEntry{Instances: []netsim.IP{instHost.IP()}, Pool: pool})
		cfg.Hybrid = tab
		backendISN = func(backend, snat netsim.HostPort) uint32 { return tcp.DeterministicISN(tab.ISNKey(), backend, snat) }
	}
	in := NewInstance(instHost, l4lb.New(n, l4lb.DefaultConfig()), store, cfg)
	if err := in.InstallRules(vip.IP, rs); err != nil {
		t.Fatal(err)
	}
	n.Attach(vip.IP, netsim.NodeFunc(in.HandleSegment)) // the mux's place

	resp := httpsim.NewResponse(200, make([]byte, 2<<10)).Marshal()
	const clientISN = 1000
	send := func(src, dst netsim.HostPort, flags netsim.TCPFlags, seq, ack uint32, payload []byte) {
		p := n.AllocPacket()
		p.Src, p.Dst, p.Flags, p.Seq, p.Ack, p.Window, p.Payload = src, dst, flags, seq, ack, 1<<20, payload
		n.Send(p)
	}
	// The client sends its requests one response apart, then its FIN,
	// unless the response carried the backend's (close mode) first.
	client := netsim.HostPort{IP: netsim.IPv4(192, 168, 0, 1)}
	sent, seq, finSent := 0, uint32(0), false
	n.Attach(client.IP, netsim.NodeFunc(func(p *netsim.Packet) {
		switch {
		case p.Flags.Has(netsim.FlagSYN | netsim.FlagACK):
			sent, seq, finSent = 1, clientISN+1+uint32(len(reqs[0])), false
			send(p.Dst, p.Src, netsim.FlagACK|netsim.FlagPSH, clientISN+1, p.Seq+1, reqs[0])
		case p.Flags.Has(netsim.FlagFIN) && finSent:
			send(p.Dst, p.Src, netsim.FlagACK, seq+1, p.SeqEnd(), nil)
		case len(p.Payload) > 0 && sent < len(reqs) && !p.Flags.Has(netsim.FlagFIN):
			send(p.Dst, p.Src, netsim.FlagACK|netsim.FlagPSH, seq, p.SeqEnd(), reqs[sent])
			sent, seq = sent+1, seq+uint32(len(reqs[sent]))
		case len(p.Payload) > 0 || p.Flags.Has(netsim.FlagFIN):
			finSent = true
			send(p.Dst, p.Src, netsim.FlagACK|netsim.FlagFIN, seq, p.SeqEnd(), nil)
		}
		n.ReleasePacket(p)
	}))
	for _, b := range backends {
		n.Attach(b.IP, netsim.NodeFunc(func(p *netsim.Packet) {
			s := backendISN(p.Dst, p.Src)
			switch {
			case p.Flags.Has(netsim.FlagSYN):
				for i := 0; i < 1 || dupSynAck && i < 2; i++ {
					send(p.Dst, p.Src, netsim.FlagSYN|netsim.FlagACK, s, p.Seq+1, nil)
				}
			case len(p.Payload) > 0 && keepAlive:
				send(p.Dst, p.Src, netsim.FlagACK|netsim.FlagPSH, s+1, p.SeqEnd(), resp)
			case len(p.Payload) > 0:
				send(p.Dst, p.Src, netsim.FlagACK|netsim.FlagPSH|netsim.FlagFIN, s+1, p.SeqEnd(), resp)
			case p.Flags.Has(netsim.FlagFIN) && keepAlive:
				send(p.Dst, p.Src, netsim.FlagACK|netsim.FlagFIN, s+1+uint32(len(resp)), p.SeqEnd(), nil)
			case p.Flags.Has(netsim.FlagFIN):
				send(p.Dst, p.Src, netsim.FlagACK, s+2+uint32(len(resp)), p.SeqEnd(), nil)
			}
			n.ReleasePacket(p)
		}))
	}
	sc := &script{n: n, in: in}
	sc.run = func() {
		client.Port = 1024 + uint16(sc.flows%60000)
		sc.flows++
		send(client, vip, netsim.FlagSYN, clientISN, 0, nil)
		n.RunUntilIdle(1 << 20)
	}
	return sc
}

// flowAllocs returns what one scripted flow allocates once the pools
// are warm, after checking that every flow tunnelled and left no entry,
// and that a few flows run after the measured ones — the tracer that
// counts their notes kept out of the measured window — each closed.
func flowAllocs(t *testing.T, hybrid, keepAlive bool) float64 {
	t.Helper()
	sc := newScript(t, hybrid, keepAlive, false)
	for i := 0; i < 64; i++ {
		sc.run() // warm the pools, the flow index and the store's connection
	}
	allocs := testing.AllocsPerRun(100, sc.run)
	in, notes, measured := sc.in, CountNotes(t, sc.n, nil), sc.flows
	for i := 0; i < 8; i++ {
		sc.run()
	}
	if flows := sc.flows; in.FlowCount() != 0 || in.ConnLat.Count() != flows {
		t.Fatalf("%d flows run, %d tunnelled, %d flow entries left", flows, in.ConnLat.Count(), in.FlowCount())
	}
	counted := sc.flows - measured
	wantSkipped, wantSwitches := 0, 0
	if hybrid {
		wantSkipped = 2 * counted
	}
	if keepAlive {
		wantSwitches = counted
	}
	closed, skipped, switches := notes.Of(in.IP(), "close"), notes.Of(in.IP(), "barrier skip"), notes.Of(in.IP(), "reselect")
	if closed != counted || skipped != wantSkipped || switches != wantSwitches {
		t.Fatalf("%d flows closed, %d barriers skipped and %d backend switches over %d flows, want %d, %d and %d", closed, skipped, switches, counted, counted, wantSkipped, wantSwitches)
	}
	return allocs
}

// TestFlowAllocBudget is core's line of the allocation ledger (DESIGN.md,
// "What a request allocates"). A flow allocates 2 objects in core: the
// request buffer and the request head's string copy. The flow object and
// its idle-timer and one-shot-timer callbacks are a torn-down flow's,
// reused. The memcached answering storage-a and storage-b in paper mode
// adds nothing: each record is a chunk of a slab page it already holds.
// A keep-alive flow whose second request re-dials another backend adds
// 5: its kaState, held bytes and request queue, and the second request
// head's two (its string copy and header fields). The re-dial itself —
// the first dial's code, every segment pooled — allocates nothing.
func TestFlowAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name              string
		hybrid, keepAlive bool
		budget            float64
	}{{"paper", false, false, 2}, {"hybrid", true, false, 2}, {"keep-alive switch", false, true, 2 + 5}} {
		if n := flowAllocs(t, c.hybrid, c.keepAlive); n > c.budget {
			t.Errorf("%s: a whole flow allocates %v objects, budget %v", c.name, n, c.budget)
		} else {
			t.Logf("%s: %v allocations per flow", c.name, n)
		}
	}
}

// TestOneBarrierPerDial: a backend's SYN-ACK retransmitted while the
// instance's storage-b write is in flight writes nothing more. A flow
// writes storage-a and one storage-b per dial: its first, and a
// keep-alive re-dial's.
func TestOneBarrierPerDial(t *testing.T) {
	for _, keepAlive := range []bool{false, true} {
		sc := newScript(t, false, keepAlive, true)
		notes := CountNotes(t, sc.n, nil)
		sc.run()
		want := uint64(2)
		if keepAlive {
			want = 3
		}
		in := sc.in
		got, closed := in.Barrier.Commits+in.Barrier.Degraded+in.Barrier.Aborted, notes.Of(in.IP(), "close")
		if got != want || closed != 1 || in.FlowCount() != 0 {
			t.Fatalf("keepAlive=%v: %d barrier writes, %d flows closed, %d flow entries left; want %d, 1, 0", keepAlive, got, closed, in.FlowCount(), want)
		}
	}
}
