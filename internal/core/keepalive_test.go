package core_test

import (
	"strings"
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

// newKABed is a testbed with two pools pinned by URL pattern, for
// exercising HTTP/1.1 mid-connection backend re-selection. Its backends
// serve different objects — a request routed to the wrong pool is a 404 —
// so it is assembled by hand and handed over as a Bed.
func newKABed(seed int64, nYoda int) *testbed.Bed {
	c := cluster.New(seed)
	c.AddStoreServers(2, memcache.DefaultSimServerConfig())
	c.AddBackend("php-1", map[string][]byte{"/a.php": []byte("PHP-A"), "/c.php": []byte("PHP-C")}, httpsim.DefaultServerConfig())
	c.AddBackend("css-1", map[string][]byte{"/b.css": []byte("CSS-B")}, httpsim.DefaultServerConfig())
	c.AddYodaN(nYoda, core.DefaultConfig(), tcpstore.DefaultConfig())
	vip := c.AddVIP("svc")
	rs := []rules.Rule{
		{Name: "php", Priority: 2, Match: rules.Match{URLGlob: "*.php"},
			Action: rules.Action{Type: rules.ActionSplit,
				Split: []rules.WeightedBackend{{Backend: c.Backends["php-1"].Rec, Weight: 1}}}},
		{Name: "css", Priority: 1, Match: rules.Match{URLGlob: "*.css"},
			Action: rules.Action{Type: rules.ActionSplit,
				Split: []rules.WeightedBackend{{Backend: c.Backends["css-1"].Rec, Weight: 1}}}},
	}
	c.InstallPolicy(vip, rs, nil)
	return &testbed.Bed{C: c, VIP: vip, Addr: netsim.HostPort{IP: vip, Port: 80}}
}

// driveKA sends the given request paths over a single keep-alive
// connection and returns the response bodies in arrival order.
func driveKA(t *testing.T, b *testbed.Bed, pipelined bool, paths ...string) []string {
	t.Helper()
	host := b.C.ClientHost()
	parser := &httpsim.ResponseParser{}
	var bodies []string
	req := func(p string) []byte { return httpsim.NewRequest(p, "svc").Marshal() }
	tcp.Dial(host, b.Addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) {
			if pipelined {
				for _, p := range paths {
					c.Write(req(p))
				}
			} else {
				c.Write(req(paths[0]))
			}
		},
		OnData: func(c *tcp.Conn, d []byte) {
			resps, err := parser.Feed(d)
			if err != nil {
				t.Errorf("client parse: %v", err)
				c.Abort()
				return
			}
			for _, r := range resps {
				bodies = append(bodies, string(r.Body))
				if !pipelined && len(bodies) < len(paths) {
					c.Write(req(paths[len(bodies)]))
				}
				if len(bodies) == len(paths) {
					c.Close()
				}
			}
		},
	}, tcp.DefaultConfig())
	b.C.Net.RunFor(30 * time.Second)
	return bodies
}

func TestKeepAlivePipelinedAcrossBackends(t *testing.T) {
	// Three pipelined requests alternating pools: responses must come back
	// in order despite two backend switches (§5.2's in-order requirement).
	b := newKABed(21, 1)
	bodies := driveKA(t, b, true, "/a.php", "/b.css", "/c.php")
	want := []string{"PHP-A", "CSS-B", "PHP-C"}
	if len(bodies) != 3 {
		t.Fatalf("got %d responses: %v", len(bodies), bodies)
	}
	for i := range want {
		if bodies[i] != want[i] {
			t.Fatalf("response %d = %q, want %q (order violated)", i, bodies[i], want[i])
		}
	}
	if b.C.Yoda[0].Reselections != 2 {
		t.Fatalf("reselections = %d, want 2", b.C.Yoda[0].Reselections)
	}
}

func TestKeepAliveSequentialAcrossBackends(t *testing.T) {
	b := newKABed(22, 1)
	bodies := driveKA(t, b, false, "/a.php", "/b.css", "/a.php")
	want := []string{"PHP-A", "CSS-B", "PHP-A"}
	if len(bodies) != 3 {
		t.Fatalf("got %d responses: %v", len(bodies), bodies)
	}
	for i := range want {
		if bodies[i] != want[i] {
			t.Fatalf("response %d = %q, want %q", i, bodies[i], want[i])
		}
	}
	// php -> css -> php again: two switches.
	if b.C.Yoda[0].Reselections != 2 {
		t.Fatalf("reselections = %d", b.C.Yoda[0].Reselections)
	}
}

func TestKeepAliveFlowStateCleanedAfterClose(t *testing.T) {
	b := newKABed(23, 1)
	bodies := driveKA(t, b, false, "/a.php", "/b.css")
	if len(bodies) != 2 {
		t.Fatalf("bodies: %v", bodies)
	}
	b.C.Net.RunFor(10 * time.Second)
	if n := b.C.Yoda[0].FlowCount(); n != 0 {
		t.Fatalf("flows leaked: %d", n)
	}
	requireStoreEmpty(t, b.C)
}

// TestKeepAliveSwitchToDeadBackend: a keep-alive request that selects a
// backend whose host is gone gets a first dial's retry policy — three SYNs
// 3 s apart, then a 503 to the client and teardown — and leaves nothing
// armed that could send a fourth.
func TestKeepAliveSwitchToDeadBackend(t *testing.T) {
	b := newKABed(25, 1)
	net, dead := b.C.Net, b.C.Backends["css-1"].Rec.Addr
	net.Detach(dead.IP)
	var syns []time.Duration
	var rejects []string
	net.SetTracer(func(ev netsim.TraceEvent) {
		p := ev.Packet
		if p.Dst == dead && p.Flags.Has(netsim.FlagSYN) {
			syns = append(syns, ev.At)
		}
		if p.Src == b.Addr && p.Flags.Has(netsim.FlagFIN) && len(p.Payload) > 0 {
			rejects = append(rejects, string(p.Payload))
		}
	})
	parser := &httpsim.ResponseParser{}
	var bodies []string
	tcp.Dial(b.C.ClientHost(), b.Addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(httpsim.NewRequest("/a.php", "svc").Marshal()) },
		OnData: func(c *tcp.Conn, d []byte) {
			resps, _ := parser.Feed(d)
			for _, r := range resps {
				bodies = append(bodies, string(r.Body))
				c.Write(httpsim.NewRequest("/b.css", "svc").Marshal())
			}
		},
	}, tcp.DefaultConfig())
	net.RunFor(time.Minute)

	if len(bodies) != 1 || bodies[0] != "PHP-A" {
		t.Fatalf("responses %q, want the first request's alone", bodies)
	}
	if len(syns) != 3 || syns[1]-syns[0] != 3*time.Second || syns[2]-syns[1] != 3*time.Second {
		t.Fatalf("SYNs to the dead backend at %v, want three, 3 s apart", syns)
	}
	if len(rejects) != 1 || !strings.HasPrefix(rejects[0], "HTTP/1.1 503") || !strings.HasSuffix(rejects[0], "backend unreachable") {
		t.Fatalf("replies closing the flow %q, want one 503 backend unreachable", rejects)
	}
	in := b.C.Yoda[0]
	if in.FlowCount() != 0 || in.FlowsClosed != 1 || in.Reselections != 1 {
		t.Fatalf("%d flow entries, %d flows closed, %d reselections; want 0, 1, 1", in.FlowCount(), in.FlowsClosed, in.Reselections)
	}
}

func TestKeepAliveRecoveryDowngradesToPinnedTunnel(t *testing.T) {
	// Kill the instance mid keep-alive session; the survivor recovers the
	// flow from TCPStore as a pure tunnel pinned to the current backend
	// (documented deviation), so in-flight transfers still finish.
	b := newKABed(24, 2)
	host := b.C.ClientHost()
	parser := &httpsim.ResponseParser{}
	var bodies []string
	var conn *tcp.Conn
	conn = tcp.Dial(host, b.Addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) {
			c.Write(httpsim.NewRequest("/a.php", "svc").Marshal())
		},
		OnData: func(c *tcp.Conn, d []byte) {
			resps, err := parser.Feed(d)
			if err != nil {
				t.Errorf("parse: %v", err)
			}
			for _, r := range resps {
				bodies = append(bodies, string(r.Body))
			}
		},
	}, tcp.DefaultConfig())

	b.C.Net.RunFor(100 * time.Millisecond)
	victim := b.C.Yoda[b.FailBusiest(1)[0]]
	// Ask for the same path again on the recovered connection: it must be
	// served by the pinned backend (php-1 holds /a.php, so content works).
	b.C.Net.Schedule(3*time.Second, func() {
		conn.Write(httpsim.NewRequest("/a.php", "svc").Marshal())
	})
	b.C.Net.RunFor(30 * time.Second)
	if len(bodies) < 2 {
		t.Fatalf("got %d responses across recovery: %v", len(bodies), bodies)
	}
	for _, body := range bodies {
		if body != "PHP-A" {
			t.Fatalf("bodies: %v", bodies)
		}
	}
	var survivor *core.Instance
	for _, in := range b.C.Yoda {
		if in != victim {
			survivor = in
		}
	}
	if survivor.Recovered == 0 {
		t.Fatal("survivor never recovered the keep-alive flow")
	}
}
