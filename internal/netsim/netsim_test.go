package netsim

import (
	"maps"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestIPString(t *testing.T) {
	cases := []struct {
		ip   IP
		want string
	}{
		{IPv4(10, 0, 0, 1), "10.0.0.1"},
		{IPv4(192, 168, 1, 255), "192.168.1.255"},
		{IPv4(0, 0, 0, 0), "0.0.0.0"},
		{IPv4(255, 255, 255, 255), "255.255.255.255"},
	}
	for _, c := range cases {
		if got := c.ip.String(); got != c.want {
			t.Errorf("IP(%d).String() = %q, want %q", uint32(c.ip), got, c.want)
		}
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		ip := IPv4(a, b, c, d)
		return byte(ip>>24) == a && byte(ip>>16) == b && byte(ip>>8) == c && byte(ip) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFourTupleReverse(t *testing.T) {
	ft := FourTuple{
		Src: HostPort{IPv4(1, 2, 3, 4), 1000},
		Dst: HostPort{IPv4(10, 0, 0, 1), 80},
	}
	rev := ft.Reverse()
	if rev.Src != ft.Dst || rev.Dst != ft.Src {
		t.Fatalf("Reverse() = %v", rev)
	}
	if rev.Reverse() != ft {
		t.Fatalf("double reverse changed tuple: %v", rev.Reverse())
	}
}

func TestFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SYN|ACK" {
		t.Errorf("got %q", got)
	}
	if got := TCPFlags(0).String(); got != "-" {
		t.Errorf("zero flags: got %q", got)
	}
	if !(FlagSYN | FlagACK).Has(FlagSYN) {
		t.Error("Has(SYN) should be true")
	}
	if (FlagSYN).Has(FlagSYN | FlagACK) {
		t.Error("Has(SYN|ACK) should be false for SYN alone")
	}
}

func TestPacketSeqEnd(t *testing.T) {
	p := &Packet{Seq: 100, Payload: []byte("hello")}
	if p.SeqEnd() != 105 {
		t.Errorf("data SeqEnd = %d, want 105", p.SeqEnd())
	}
	p = &Packet{Seq: 100, Flags: FlagSYN}
	if p.SeqEnd() != 101 {
		t.Errorf("SYN SeqEnd = %d, want 101", p.SeqEnd())
	}
	p = &Packet{Seq: 100, Flags: FlagFIN, Payload: []byte("x")}
	if p.SeqEnd() != 102 {
		t.Errorf("FIN+data SeqEnd = %d, want 102", p.SeqEnd())
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{
		Src:     HostPort{IPv4(1, 1, 1, 1), 5},
		Payload: []byte("abc"),
		Outer:   &Encap{Src: IPv4(10, 0, 0, 1), Dst: IPv4(10, 0, 0, 2)},
	}
	q := p.Clone()
	q.Payload[0] = 'z'
	q.Outer.Dst = IPv4(10, 0, 0, 3)
	if p.Payload[0] != 'a' {
		t.Error("clone shares payload")
	}
	if p.Outer.Dst != IPv4(10, 0, 0, 2) {
		t.Error("clone shares outer header")
	}
}

func TestScheduleOrdering(t *testing.T) {
	n := New(1)
	var order []int
	n.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	n.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	n.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	n.RunUntilIdle(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if n.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", n.Now())
	}
}

func TestScheduleTieBreaksFIFO(t *testing.T) {
	n := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		n.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	n.RunUntilIdle(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("events with equal time not FIFO: %v", order)
		}
	}
}

func TestTimerStop(t *testing.T) {
	n := New(1)
	fired := false
	tm := n.Schedule(time.Millisecond, func() { fired = true })
	tm.Stop()
	n.RunUntilIdle(10)
	if fired {
		t.Fatal("stopped timer fired")
	}
	// Stopping again must be harmless, as must stopping a zero timer.
	tm.Stop()
	var zeroTimer Timer
	zeroTimer.Stop()
	if zeroTimer.Active() {
		t.Fatal("zero timer reports active")
	}
	if tm.Active() {
		t.Fatal("stopped timer reports active")
	}
}

// TestStoppedTimerReleasesCallback: Stop must let go of the callback at
// once, not when the deadline (an HTTP timeout: tens of virtual seconds)
// comes round, or every completed fetch pins its connection, parser and
// response body until then.
func TestStoppedTimerReleasesCallback(t *testing.T) {
	n := New(1)
	collected := make(chan struct{})
	func() {
		captured := new([1 << 16]byte)
		runtime.SetFinalizer(captured, func(*[1 << 16]byte) { close(collected) })
		tm := n.Schedule(time.Hour, func() { captured[0]++ })
		tm.Stop()
	}()
	if n.Pending() != 0 {
		t.Fatalf("Pending = %d after Stop, want 0", n.Pending())
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			if n.Now() != 0 || n.RunUntilIdle(10) != 0 {
				t.Fatal("cancelled record ran")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a stopped timer's callback is still reachable before its deadline")
}

func TestRunDeadline(t *testing.T) {
	n := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{5, 10, 15, 20} {
		d := d * time.Millisecond
		n.Schedule(d, func() { fired = append(fired, d) })
	}
	n.Run(12 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %v before deadline, want 2 events", fired)
	}
	if n.Now() != 12*time.Millisecond {
		t.Fatalf("clock = %v, want 12ms", n.Now())
	}
	n.Run(100 * time.Millisecond)
	if len(fired) != 4 {
		t.Fatalf("fired %v after second run", fired)
	}
}

func TestSendDeliversWithLatency(t *testing.T) {
	n := New(1)
	dst := IPv4(10, 0, 0, 2)
	var gotAt time.Duration
	var got *Packet
	n.Attach(dst, NodeFunc(func(p *Packet) {
		gotAt = n.Now()
		got = p
	}))
	pkt := &Packet{
		Src:     HostPort{IPv4(10, 0, 0, 1), 1000},
		Dst:     HostPort{dst, 80},
		Payload: []byte("hi"),
	}
	n.Send(pkt)
	n.RunUntilIdle(10)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if gotAt != 150*time.Microsecond {
		t.Fatalf("intra-DC delivery at %v, want 150µs", gotAt)
	}
}

func TestDefaultLatencyZones(t *testing.T) {
	client := IPv4(100, 1, 1, 1)
	dc1 := IPv4(10, 0, 0, 1)
	dc2 := IPv4(10, 0, 0, 2)
	if d := DefaultLatency(dc1, dc2); d != 150*time.Microsecond {
		t.Errorf("intra-DC = %v", d)
	}
	if d := DefaultLatency(client, dc1); d != 30*time.Millisecond {
		t.Errorf("client->DC = %v", d)
	}
	if d := DefaultLatency(dc1, client); d != 30*time.Millisecond {
		t.Errorf("DC->client = %v", d)
	}
}

func TestSendToDetachedNodeDrops(t *testing.T) {
	n := New(1)
	dst := IPv4(10, 0, 0, 2)
	delivered := 0
	n.Attach(dst, NodeFunc(func(p *Packet) { delivered++ }))
	n.Detach(dst)
	n.Send(&Packet{Src: HostPort{IPv4(10, 0, 0, 1), 1}, Dst: HostPort{dst, 2}})
	n.RunUntilIdle(10)
	if delivered != 0 {
		t.Fatal("delivered to detached node")
	}
	if n.DroppedNoRoute != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1", n.DroppedNoRoute)
	}
}

func TestEncapRouting(t *testing.T) {
	n := New(1)
	inner := IPv4(10, 0, 0, 2)
	outer := IPv4(10, 0, 0, 3)
	reached := ""
	n.Attach(inner, NodeFunc(func(p *Packet) { reached = "inner" }))
	n.Attach(outer, NodeFunc(func(p *Packet) { reached = "outer" }))
	n.Send(&Packet{
		Src:   HostPort{IPv4(10, 0, 0, 1), 1},
		Dst:   HostPort{inner, 80},
		Outer: &Encap{Src: IPv4(10, 0, 0, 1), Dst: outer},
	})
	n.RunUntilIdle(10)
	if reached != "outer" {
		t.Fatalf("encapsulated packet reached %q, want outer node", reached)
	}
}

func TestDropFunc(t *testing.T) {
	n := New(1)
	dst := IPv4(10, 0, 0, 2)
	delivered := 0
	n.Attach(dst, NodeFunc(func(p *Packet) { delivered++ }))
	n.SetDropFunc(func(p *Packet) bool { return p.Flags.Has(FlagSYN) })
	n.Send(&Packet{Src: HostPort{IPv4(10, 0, 0, 1), 1}, Dst: HostPort{dst, 2}, Flags: FlagSYN})
	n.Send(&Packet{Src: HostPort{IPv4(10, 0, 0, 1), 1}, Dst: HostPort{dst, 2}, Flags: FlagACK})
	n.RunUntilIdle(10)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (SYN dropped)", delivered)
	}
	if n.DroppedByPolicy != 1 {
		t.Fatalf("DroppedByPolicy = %d, want 1", n.DroppedByPolicy)
	}
}

func TestTracer(t *testing.T) {
	n := New(1)
	dst := IPv4(10, 0, 0, 2)
	n.Attach(dst, NodeFunc(func(p *Packet) {}))
	var events []TraceEvent
	n.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	n.Send(&Packet{Src: HostPort{IPv4(10, 0, 0, 1), 1}, Dst: HostPort{dst, 2}})
	n.Send(&Packet{Src: HostPort{IPv4(10, 0, 0, 1), 1}, Dst: HostPort{IPv4(10, 0, 9, 9), 2}})
	n.RunUntilIdle(10)
	if len(events) != 2 {
		t.Fatalf("trace events = %d, want 2", len(events))
	}
	if events[0].Dropped || !events[1].Dropped {
		t.Fatalf("trace drop markers wrong: %+v", events)
	}
	if events[1].Reason != "no route" {
		t.Fatalf("drop reason = %q", events[1].Reason)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		n := New(42)
		n.SetJitter(0.2)
		dst := IPv4(10, 0, 0, 2)
		var times []time.Duration
		n.Attach(dst, NodeFunc(func(p *Packet) { times = append(times, n.Now()) }))
		for i := 0; i < 50; i++ {
			n.Send(&Packet{Src: HostPort{IPv4(10, 0, 0, 1), 1}, Dst: HostPort{dst, 2}})
		}
		n.RunUntilIdle(1000)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestJitterBounded(t *testing.T) {
	n := New(7)
	n.SetJitter(0.5)
	dst := IPv4(10, 0, 0, 2)
	base := 150 * time.Microsecond
	var times []time.Duration
	n.Attach(dst, NodeFunc(func(p *Packet) { times = append(times, n.Now()) }))
	for i := 0; i < 200; i++ {
		nn := New(int64(i))
		nn.SetJitter(0.5)
		at := time.Duration(-1)
		nn.Attach(dst, NodeFunc(func(p *Packet) { at = nn.Now() }))
		nn.Send(&Packet{Src: HostPort{IPv4(10, 0, 0, 1), 1}, Dst: HostPort{dst, 2}})
		nn.RunUntilIdle(10)
		times = append(times, at)
	}
	lo, hi := base/2, base*3/2
	for _, d := range times {
		if d < lo || d > hi {
			t.Fatalf("jittered latency %v outside [%v,%v]", d, lo, hi)
		}
	}
}

func TestHostDemux(t *testing.T) {
	n := New(1)
	h := NewHost(n, IPv4(10, 0, 0, 5))
	var listenerGot, connGot, defaultGot int
	h.Listen(80, PortHandlerFunc(func(p *Packet) { listenerGot++ }))
	remote := HostPort{IPv4(10, 0, 0, 6), 999}
	h.Register(80, remote, PortHandlerFunc(func(p *Packet) { connGot++ }))
	h.Default = PortHandlerFunc(func(p *Packet) { defaultGot++ })

	send := func(src HostPort, dstPort uint16) {
		n.Send(&Packet{Src: src, Dst: HostPort{h.IP(), dstPort}})
		n.RunUntilIdle(10)
	}
	send(remote, 80) // matches the registered connection
	if connGot != 1 || listenerGot != 0 {
		t.Fatalf("conn=%d listener=%d after registered-flow packet", connGot, listenerGot)
	}
	send(HostPort{IPv4(10, 0, 0, 7), 1}, 80) // unknown remote -> listener
	if listenerGot != 1 {
		t.Fatalf("listener = %d, want 1", listenerGot)
	}
	send(HostPort{IPv4(10, 0, 0, 7), 1}, 81) // no listener -> default
	if defaultGot != 1 {
		t.Fatalf("default = %d, want 1", defaultGot)
	}
	h.Unregister(80, remote)
	send(remote, 80) // now falls back to the listener
	if listenerGot != 2 {
		t.Fatalf("listener = %d after unregister, want 2", listenerGot)
	}
}

// countingBatch counts what the host hands it, per segment and per run.
type countingBatch struct{ segs, runs int }

func (c *countingBatch) HandleSegment(*Packet) { c.segs++ }
func (c *countingBatch) HandleSegmentBatch(ps []*Packet) {
	c.segs += len(ps)
	c.runs++
}

// TestHostConnKeyExtremes: the one-word demux key keeps local port,
// remote IP and remote port apart at the edges of their ranges — ports
// 0, 1 and 65535, IP 0xFFFFFFFF, remotes that differ only in the port —
// in Register, Unregister, Demux, the batch path and portRefs.
func TestHostConnKeyExtremes(t *testing.T) {
	n := New(1)
	h := NewHost(n, IPv4(10, 0, 0, 5))
	got := map[string]int{}
	def := &countingBatch{}
	h.Default = def
	regs := []struct {
		name   string
		local  uint16
		remote HostPort
	}{
		{"local0", 0, HostPort{0xFFFFFFFF, 65535}},
		{"local1", 1, HostPort{0xFFFFFFFF, 65535}},
		{"local65535", 65535, HostPort{0xFFFFFFFF, 65535}},
		{"remote0", 65535, HostPort{0, 0}},
		{"remotePort1", 80, HostPort{IPv4(10, 0, 0, 6), 1}},
		{"remotePort2", 80, HostPort{IPv4(10, 0, 0, 6), 2}},
		{"remoteIPmax", 80, HostPort{0xFFFFFFFF, 0}},
	}
	for _, r := range regs {
		name := r.name
		h.Register(r.local, r.remote, PortHandlerFunc(func(*Packet) { got[name]++ }))
	}
	h.Register(80, regs[4].remote, PortHandlerFunc(func(*Packet) { got[regs[4].name]++ })) // a rebind
	wantRefs := map[uint16]int{0: 1, 1: 1, 65535: 2, 80: 3}
	if !maps.Equal(h.portRefs, wantRefs) {
		t.Fatalf("portRefs = %v, want %v", h.portRefs, wantRefs)
	}
	for _, r := range regs {
		h.Demux(&Packet{Src: r.remote, Dst: HostPort{h.IP(), r.local}})
		if got[r.name] != 1 {
			t.Fatalf("%s: delivered %d times, want 1 (all: %v)", r.name, got[r.name], got)
		}
	}
	for _, miss := range []Packet{
		{Src: HostPort{IPv4(10, 0, 0, 6), 3}, Dst: HostPort{h.IP(), 80}},
		{Src: HostPort{0xFFFFFFFE, 65535}, Dst: HostPort{h.IP(), 0}},
		{Src: HostPort{0xFFFFFFFF, 65534}, Dst: HostPort{h.IP(), 65535}},
		{Src: HostPort{0xFFFFFFFF, 65535}, Dst: HostPort{h.IP(), 2}},
	} {
		h.Demux(&miss)
	}
	if def.segs != 4 {
		t.Fatalf("default handler got %d of 4 unregistered segments", def.segs)
	}
	// A run to an unregistered remote at local port 65535 goes to its
	// listener, one segment at a time, not to the batch-capable default.
	listened := 0
	h.Listen(65535, PortHandlerFunc(func(*Packet) { listened++ }))
	for range 2 {
		n.Send(&Packet{Src: HostPort{IPv4(10, 0, 0, 7), 9}, Dst: HostPort{h.IP(), 65535}})
	}
	n.RunUntilIdle(10)
	if listened != 2 || def.runs != 0 {
		t.Fatalf("listener got %d of 2, default %d runs", listened, def.runs)
	}
	for _, r := range regs {
		h.Unregister(r.local, r.remote)
		h.Unregister(r.local, r.remote) // a second time is a no-op
	}
	if len(h.conns) != 0 || len(h.portRefs) != 0 {
		t.Fatalf("after unregistering all: %d conns, portRefs %v", len(h.conns), h.portRefs)
	}
	h.Demux(&Packet{Src: regs[0].remote, Dst: HostPort{h.IP(), 0}})
	if got[regs[0].name] != 1 || def.segs != 5 {
		t.Fatalf("an unregistered connection still received: %v, default %d", got, def.segs)
	}
}

func TestHostDecapsulates(t *testing.T) {
	n := New(1)
	h := NewHost(n, IPv4(10, 0, 0, 5))
	var got *Packet
	h.Default = PortHandlerFunc(func(p *Packet) { got = p })
	n.Send(&Packet{
		Src:   HostPort{IPv4(10, 0, 0, 1), 1},
		Dst:   HostPort{IPv4(10, 0, 0, 99), 80}, // inner dst is elsewhere (a VIP)
		Outer: &Encap{Src: IPv4(10, 0, 0, 1), Dst: h.IP()},
	})
	n.RunUntilIdle(10)
	if got == nil {
		t.Fatal("host did not receive encapsulated packet")
	}
	if got.Outer != nil {
		t.Fatal("host did not strip outer header")
	}
	if got.Dst.IP != IPv4(10, 0, 0, 99) {
		t.Fatalf("inner dst = %v", got.Dst)
	}
}

func TestHostAllocPort(t *testing.T) {
	n := New(1)
	h := NewHost(n, IPv4(10, 0, 0, 5))
	seen := make(map[uint16]bool)
	for i := 0; i < 1000; i++ {
		p := h.AllocPort()
		if seen[p] {
			t.Fatalf("port %d allocated twice without reuse", p)
		}
		seen[p] = true
		// Simulate the port being consumed by a connection so it cannot be
		// handed out again while in use.
		h.Register(p, HostPort{IPv4(10, 0, 0, 6), 1}, PortHandlerFunc(func(*Packet) {}))
	}
}

func TestHostDetachReattach(t *testing.T) {
	n := New(1)
	h := NewHost(n, IPv4(10, 0, 0, 5))
	got := 0
	h.Listen(80, PortHandlerFunc(func(p *Packet) { got++ }))
	send := func() {
		n.Send(&Packet{Src: HostPort{IPv4(10, 0, 0, 1), 1}, Dst: HostPort{h.IP(), 80}})
		n.RunUntilIdle(10)
	}
	send()
	h.Detach()
	send()
	h.Reattach()
	send()
	if got != 2 {
		t.Fatalf("delivered %d, want 2 (middle send dropped)", got)
	}
}
