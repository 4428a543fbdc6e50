package core_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
)

// TestKilledInstanceHoldsNothing: a killed instance's flows live on in
// TCPStore only, so locally they are garbage. The instance holds an idle
// keep-alive flow, a flow whose backend SYNs go unanswered, a flow
// lingering after both FINs and two orphans' queues parked behind their
// store reads, and in hybrid mode the claim a dead head's ambiguous bare
// ACK left on its predicted server tuple; the kill stops every timer
// they hold, so the scheduler's count falls by exactly those, and a
// second later the collector has freed them all.
func TestKilledInstanceHoldsNothing(t *testing.T) {
	for _, mode := range []string{"paper", "hybrid"} {
		t.Run(mode, func(t *testing.T) {
			c := cluster.New(11)
			if mode == "hybrid" {
				c.EnableHybrid(0x9e3779b97f4a7c15)
			}
			body := bytes.Repeat([]byte("K"), 2<<10)
			srv := c.AddBackend("srv-1", map[string][]byte{"/obj": body}, httpsim.DefaultServerConfig())
			c.AddStoreServers(2, memcache.DefaultSimServerConfig())
			// A second instance serves nothing: in hybrid mode it is the
			// dead head of the ambiguous probe below.
			c.AddYodaN(2, core.DefaultConfig(), tcpstore.DefaultConfig())
			vip := netsim.HostPort{IP: c.AddVIP("svc"), Port: 80}
			c.InstallPolicy(vip.IP, c.SimpleSplitRules("srv-1"), c.Yoda[:1])
			in, client, net := c.Yoda[0], c.ClientHost(), c.Net
			req := httpsim.NewRequest("/obj", "svc").Marshal()
			replied := 0
			open := func(onReply func(*tcp.Conn)) {
				var parser httpsim.ResponseParser
				tcp.Dial(client, vip, tcp.Callbacks{
					OnEstablished: func(conn *tcp.Conn) { conn.Write(req) },
					OnData: func(conn *tcp.Conn, data []byte) {
						if resps, err := parser.Feed(data); err == nil && len(resps) > 0 {
							replied++
							onReply(conn)
						}
					},
					OnPeerClose: func(conn *tcp.Conn) { conn.Close() },
				}, tcp.DefaultConfig())
			}

			open(func(*tcp.Conn) {}) // stays open, idle
			net.RunFor(time.Second)
			open(func(conn *tcp.Conn) { conn.Close() }) // lingers once both FINs pass
			net.RunFor(100 * time.Millisecond)
			// The backend's SYNs go unanswered from here on.
			net.SetDropFunc(func(p *netsim.Packet) bool { return p.Dst == srv.Rec.Addr && p.Flags.Has(netsim.FlagSYN) })
			open(func(*tcp.Conn) {})
			net.RunFor(100 * time.Millisecond)
			want := []string{"dialing", "idle", "lingering", "queue", "queue"}
			if mode == "hybrid" {
				// The claim an ambiguous bare ACK leaves (ambiguousAck).
				headDies(c, vip)
				ambiguousAck(c, vip, 62000)
				net.RunFor(100 * time.Millisecond)
				want = append([]string{"claim"}, want...)
			}
			// Two orphan segments: no flow holds their tuples, so each
			// parks while the store is read, and the kill comes first.
			for port := uint16(61000); port < 61002; port++ {
				p := net.AllocPacket()
				p.Src, p.Dst = netsim.HostPort{IP: client.IP(), Port: port}, vip
				p.Flags, p.Seq, p.Ack, p.Payload = netsim.FlagACK|netsim.FlagPSH, 1000, 2000, req
				net.Send(p)
			}
			for in.PendingQueues() < 2 && net.Step() {
			}
			if replied != 2 {
				t.Fatalf("%d replies before the kill, want 2", replied)
			}

			held := in.HeldObjects()
			var kinds []string
			timers := 0
			for _, o := range held {
				kinds = append(kinds, o.Kind)
				timers += o.Timers
			}
			slices.Sort(kinds)
			if !slices.Equal(kinds, want) {
				t.Fatalf("the instance holds %v, want %v", kinds, want)
			}
			pending := net.Pending()
			c.KillYoda(0)
			if got := pending - net.Pending(); got != timers {
				t.Fatalf("the kill took %d events off the scheduler, want the %d timers its flows and queues held", got, timers)
			}
			net.RunFor(time.Second + time.Millisecond)
			runtime.GC()
			for _, o := range held {
				if o.Live() {
					t.Errorf("the killed instance's %s object is still reachable", o.Kind)
				}
			}
			runtime.KeepAlive(c) // the cluster, dead instance included, outlives the check
		})
	}
}

// headDies adds c.Yoda[1] to vip's hybrid instance list and marks it
// dead, so a client whose head it is sends orphans no store record
// resolves.
func headDies(c *cluster.Cluster, vip netsim.HostPort) {
	e, _ := c.Hybrid.VIP(vip.IP)
	e.Instances = append(e.Instances, c.Yoda[1].IP())
	c.Hybrid.SetVIP(vip.IP, e)
	c.Hybrid.MarkDead(c.Yoda[1].IP())
}

// ambiguousAck sends a bare ACK at the instances' ISN + 1 from the first
// client port from port on whose head is the dead c.Yoda[1] (headDies):
// the store misses, and the receiving instance claims the predicted
// server tuple until FlowIdleTimeout ends it. It returns the port used.
func ambiguousAck(c *cluster.Cluster, vip netsim.HostPort, port uint16) uint16 {
	ct := netsim.FourTuple{Src: netsim.HostPort{IP: c.ClientHost().IP(), Port: port}, Dst: vip}
	for ; ; ct.Src.Port++ {
		if head, _ := c.Hybrid.Head(vip.IP, ct); head == c.Yoda[1].IP() {
			break
		}
	}
	p := c.Net.AllocPacket()
	p.Src, p.Dst, p.Flags, p.Seq, p.Ack = ct.Src, ct.Dst, netsim.FlagACK, 5000, core.ISNToClient(ct.Src, ct.Dst)+1
	c.Net.Send(p)
	return ct.Src.Port
}

// TestHybridClaimsExpireInTurn: the claims three ambiguous bare ACKs
// leave, 10 s apart, end one at a time as their timers fire, each end
// leaving the later claims held, until none is.
func TestHybridClaimsExpireInTurn(t *testing.T) {
	c := cluster.New(12)
	c.EnableHybrid(0x9e3779b97f4a7c15)
	c.AddBackend("srv-1", map[string][]byte{"/obj": []byte("x")}, httpsim.DefaultServerConfig())
	c.AddStoreServers(2, memcache.DefaultSimServerConfig())
	c.AddYodaN(2, core.DefaultConfig(), tcpstore.DefaultConfig())
	vip := netsim.HostPort{IP: c.AddVIP("svc"), Port: 80}
	c.InstallPolicy(vip.IP, c.SimpleSplitRules("srv-1"), c.Yoda[:1])
	headDies(c, vip)
	claims := func() int {
		n := 0
		for _, o := range c.Yoda[0].HeldObjects() {
			if o.Kind == "claim" && o.Timers == 1 {
				n++
			}
		}
		return n
	}
	port := uint16(62000)
	for range 3 {
		port = ambiguousAck(c, vip, port) + 1
		c.Net.RunFor(10 * time.Second)
	}
	idle := core.DefaultConfig().FlowIdleTimeout
	// The claims end at idle + 0, 10 and 20 s.
	for _, step := range []struct {
		until time.Duration
		want  int
	}{{30 * time.Second, 3}, {idle + 5*time.Second, 2}, {idle + 15*time.Second, 1}, {idle + 25*time.Second, 0}} {
		c.Net.RunFor(step.until - c.Net.Now())
		if got := claims(); got != step.want {
			t.Fatalf("at %v the instance holds %d claims, want %d", c.Net.Now(), got, step.want)
		}
	}
}
