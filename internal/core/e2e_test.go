package core_test

import (
	"bytes"
	"fmt"
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

// e2eObjects is what every backend of the e2e testbeds serves.
var e2eObjects = map[string][]byte{
	"/10k":  bytes.Repeat([]byte("a"), 10*1024),
	"/100k": bytes.Repeat([]byte("b"), 100*1024),
	"/tiny": []byte("ok"),
}

// newTestbed builds the standard small testbed: nYoda instances, 3
// TCPStore servers, 3 backends with an equal split policy for one VIP.
func newTestbed(t *testing.T, seed int64, nYoda int) *testbed.Bed {
	t.Helper()
	tb := testbed.New(testbed.Config{Seed: seed, Objects: e2eObjects, Backends: 3, Stores: 3, LBs: nYoda})
	// Every e2e flow on this testbed, the failovers included, runs with
	// released send buffers poisoned: an instance, parser or store session
	// that still read a payload after its sender's full ACK would corrupt
	// a body or a record here.
	tb.C.Net.PoisonReleasedBufs()
	return tb
}

// keep returns a done that stores a clone of the fetch's result in
// *res: Client.Fetch lends the result only until done returns.
func keep(res **httpsim.FetchResult) func(*httpsim.FetchResult) {
	return func(r *httpsim.FetchResult) { *res = r.Clone() }
}

func TestEndToEndFetchThroughYoda(t *testing.T) {
	tb := newTestbed(t, 1, 2)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/10k", keep(&res))
	tb.C.Net.RunFor(5 * time.Second)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("fetch error: %v", res.Err)
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/10k"]) {
		t.Fatalf("body corrupted: %d bytes", len(res.Resp.Body))
	}
	// End-to-end latency: 2 WAN RTTs (120ms) + rule lookup (~3.2ms) +
	// TCPStore ops + server processing. Must be well under 200ms.
	if res.Elapsed() < 120*time.Millisecond || res.Elapsed() > 250*time.Millisecond {
		t.Fatalf("elapsed = %v", res.Elapsed())
	}
}

func TestFetchLargeObject(t *testing.T) {
	tb := newTestbed(t, 2, 2)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/100k", keep(&res))
	tb.C.Net.RunFor(10 * time.Second)
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/100k"]) {
		t.Fatal("large body corrupted through tunnel")
	}
}

func TestManyConcurrentFetches(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	notes := core.CountNotes(t, tb.C.Net, nil)
	const N = 40
	done := 0
	var errs []error
	for i := 0; i < N; i++ {
		cl := tb.C.NewClient(httpsim.DefaultClientConfig())
		cl.Get(tb.Addr, "/10k", func(r *httpsim.FetchResult) {
			done++
			if r.Err != nil {
				errs = append(errs, r.Err)
			}
		})
	}
	tb.C.Net.RunFor(30 * time.Second)
	if done != N {
		t.Fatalf("done = %d/%d", done, N)
	}
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	// Traffic must be spread across instances.
	busy := 0
	for _, in := range tb.C.Yoda {
		if notes.To(in.IP(), "new flow", tb.VIP) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d instances saw traffic", busy)
	}
}

func TestFlowStateCleanedAfterClose(t *testing.T) {
	tb := newTestbed(t, 4, 1)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) { res = r.Clone() })
	tb.C.Net.RunFor(10 * time.Second) // includes FinLinger
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if n := tb.C.Yoda[0].FlowCount(); n != 0 {
		t.Fatalf("flows leaked: %d", n)
	}
	requireStoreEmpty(t, tb.C)
}

func TestSplitAcrossBackends(t *testing.T) {
	tb := newTestbed(t, 5, 2)
	const N = 60
	done := 0
	for i := 0; i < N; i++ {
		cl := tb.C.NewClient(httpsim.DefaultClientConfig())
		cl.Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) {
			if r.Err == nil {
				done++
			}
		})
	}
	tb.C.Net.RunFor(30 * time.Second)
	if done != N {
		t.Fatalf("done = %d", done)
	}
	for name, b := range tb.C.Backends {
		if b.Server.Requests < N/6 {
			t.Errorf("backend %s got %d requests, want roughly %d", name, b.Server.Requests, N/3)
		}
	}
}

func TestFailoverDuringTunnelPhase(t *testing.T) {
	tb := newTestbed(t, 6, 2)
	core.CountNotes(t, tb.C.Net, nil)
	cfg := httpsim.DefaultClientConfig() // 30s HTTP timeout, no retry
	cl := tb.C.NewClient(cfg)
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/100k", keep(&res))
	// The transfer starts around 120-140ms and takes a while through slow
	// start. Kill whichever instance owns the flow mid-transfer; the bed
	// withdraws it a ping interval later (monitor detection delay).
	tb.C.Net.RunFor(200 * time.Millisecond)
	victim := tb.FailBusiest(1)[0]
	tb.C.Net.RunFor(30 * time.Second)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("flow broke despite TCPStore recovery: %v (timedout=%v)", res.Err, res.TimedOut)
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/100k"]) {
		t.Fatalf("body corrupted across failover: %d bytes", len(res.Resp.Body))
	}
	survivor := tb.C.Yoda[1-victim]
	if survivor.Recovered == 0 {
		t.Fatal("survivor never recovered a flow from TCPStore")
	}
	// Recovery adds roughly the retransmission + detection delay (0.6-3s
	// per the paper), far below the 30s HTTP timeout.
	if res.Elapsed() > 10*time.Second {
		t.Fatalf("recovery too slow: %v", res.Elapsed())
	}
	requireStoreEmpty(t, tb.C) // an adopted flow deletes the records it was adopted from
	// and the adopter releases the entries that pinned it there.
	if n := tb.C.L4.AffinityCount(); n != 0 {
		t.Fatalf("the adopted flow left %d affinity entries", n)
	}
}

// requireStoreEmpty fails unless no TCPStore server holds a record: true
// of a cluster whose flows have all closed and lingered out, and of one
// whose flows never needed the store.
func requireStoreEmpty(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	for i, s := range c.StoreServers {
		if items := s.Engine.Stats().CurrItems; items != 0 {
			t.Fatalf("store server %d holds %d records, want none", i, items)
		}
	}
}

func TestFailoverDuringConnectionPhase(t *testing.T) {
	tb := newTestbed(t, 7, 2)
	core.CountNotes(t, tb.C.Net, nil)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/10k", keep(&res))
	// Timeline: SYN reaches the instance ~30ms, storage-a ~1ms, SYN-ACK at
	// client ~61ms, request data back at the instance ~91ms. Killing at
	// 75ms lands after storage-a/SYN-ACK but before the data arrives — the
	// "more interesting case" of §4.2.
	victim := -1
	tb.C.Net.Schedule(75*time.Millisecond, func() { victim = tb.FailBusiest(1)[0] })
	tb.C.Net.RunFor(40 * time.Second)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("connection-phase failover broke the flow: %v", res.Err)
	}
	if tb.C.Yoda[1-victim].Recovered == 0 {
		t.Fatal("survivor did not recover the connection-phase flow")
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/10k"]) {
		t.Fatal("body corrupted")
	}
}

// TestRequestHeaderSplitAcrossSegments sends a /10k GET whose header
// arrives in pieces, and wants its response whole and in time. An
// instance acknowledges a partial header only once a record holds it
// (the monitor's G1 (b)), so a survivor resumes from that record:
//
//   - late: the first header line goes 200 ms before the rest. Its ACK
//     opens the window, so the rest follows at once; with the owner
//     killed at 150 ms, between the two writes, the survivor reads the
//     first line from the record;
//   - lost: a 3 KB header, three segments, whose second is lost once.
//     The first one's ACK moves the client's oldest unacknowledged byte
//     to the hole, which is all its retransmission resends; with the
//     owner killed at 150 ms, before that retransmission, the survivor
//     reads the first segment from the record.
func TestRequestHeaderSplitAcrossSegments(t *testing.T) {
	for _, c := range []struct {
		name       string
		lost, kill bool
		within     time.Duration
	}{
		{"late", false, false, 500 * time.Millisecond},
		{"late, owner killed", false, true, 2 * time.Second},
		{"lost", true, false, 2 * time.Second},
		{"lost, owner killed", true, true, 2 * time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := newTestbed(t, 7, 2)
			net := tb.C.Net
			core.CountNotes(t, net, nil)
			r := httpsim.NewRequest("/10k", "mysite")
			cut := 0 // where the late write starts
			if c.lost {
				r.SetHeader("X-Pad", strings.Repeat("p", 3000))
			}
			req := r.MarshalClose()
			if !c.lost {
				cut = bytes.Index(req, []byte("\r\n")) + 2
			}
			client, mss := tb.C.ClientHost(), tcp.DefaultConfig().MSS
			var first uint32 // the header's first sequence number
			dropped := !c.lost
			net.SetDropFunc(func(p *netsim.Packet) bool {
				if dropped || p.Src.IP != client.IP() || len(p.Payload) == 0 || p.Outer != nil {
					return false
				}
				if first == 0 {
					first = p.Seq
				}
				dropped = p.Seq == first+uint32(mss)
				return dropped
			})
			parser := &httpsim.ResponseParser{}
			var at time.Duration // when the whole, intact response arrived
			tcp.Dial(client, tb.Addr, tcp.Callbacks{
				OnEstablished: func(conn *tcp.Conn) {
					if cut == 0 {
						conn.Write(req)
						return
					}
					conn.Write(req[:cut])
					net.Schedule(200*time.Millisecond, func() { conn.Write(req[cut:]) })
				},
				OnData: func(conn *tcp.Conn, d []byte) {
					resps, _ := parser.Feed(d)
					for _, r := range resps {
						if r.StatusCode == 200 && bytes.Equal(r.Body, e2eObjects["/10k"]) {
							at = net.Now()
						}
						conn.Close()
					}
				},
			}, tcp.DefaultConfig())
			if c.kill {
				net.Schedule(150*time.Millisecond, func() { tb.FailBusiest(1) })
			}
			net.RunFor(2 * time.Minute)
			if at == 0 || at > c.within {
				t.Errorf("the response came at %v, want it by %v", at, c.within)
			}
			t.Logf("the response came at %v", at)
		})
	}
}

func TestRejectWhenNoRuleMatches(t *testing.T) {
	tb := testbed.New(testbed.Config{Seed: 8, Objects: map[string][]byte{"/x": []byte("y")}, Backends: 1, Stores: 2, LBs: 1})
	c, vip := tb.C, tb.VIP
	only := []rules.Rule{{
		Name: "jpg-only", Priority: 1, Match: rules.Match{URLGlob: "*.jpg"},
		Action: rules.Action{Type: rules.ActionSplit,
			Split: []rules.WeightedBackend{{Backend: c.Backends["srv-1"].Rec, Weight: 1}}},
	}}
	c.InstallPolicy(vip, only, nil)
	cl := c.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(netsim.HostPort{IP: vip, Port: 80}, "/not-a-jpg", func(r *httpsim.FetchResult) { res = r.Clone() })
	c.Net.RunFor(5 * time.Second)
	if res == nil {
		t.Fatal("no response")
	}
	if res.Err != nil {
		t.Fatalf("expected HTTP 503, got transport error %v", res.Err)
	}
	if res.Resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", res.Resp.StatusCode)
	}
}

func TestKeepAliveMultipleRequestsSameBackend(t *testing.T) {
	tb := newTestbed(t, 9, 1)
	notes := core.CountNotes(t, tb.C.Net, nil)
	host := tb.C.ClientHost()
	parser := &httpsim.ResponseParser{}
	var bodies [][]byte
	req := func(path string) []byte {
		r := httpsim.NewRequest(path, "mysite")
		return r.Marshal() // HTTP/1.1, keep-alive by default
	}
	conn := tcp.Dial(host, tb.Addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(req("/tiny")) },
		OnData: func(c *tcp.Conn, d []byte) {
			resps, err := parser.Feed(d)
			if err != nil {
				t.Errorf("parse: %v", err)
			}
			for _, r := range resps {
				bodies = append(bodies, r.Body)
				if len(bodies) == 1 {
					c.Write(req("/tiny"))
				} else {
					c.Close()
				}
			}
		},
	}, tcp.DefaultConfig())
	_ = conn
	tb.C.Net.RunFor(10 * time.Second)
	if len(bodies) != 2 {
		t.Fatalf("got %d responses", len(bodies))
	}
	for _, b := range bodies {
		if string(b) != "ok" {
			t.Fatalf("body = %q", b)
		}
	}
	if n := notes.Of(tb.C.Yoda[0].IP(), "reselect"); n != 0 {
		t.Fatalf("unexpected backend switch: %d", n)
	}
}

func TestKeepAliveBackendReselection(t *testing.T) {
	// Two requests on one connection matching rules that pin different
	// backends: the instance must switch servers mid-connection (§5.2).
	tb := testbed.New(testbed.Config{Seed: 10, Backends: 2, Stores: 2, LBs: 1, Objects: map[string][]byte{
		"/a.php": []byte("from-php-pool"), "/b.css": []byte("from-css-pool"),
	}})
	c, vip := tb.C, tb.VIP
	rs := []rules.Rule{
		{Name: "php", Priority: 2, Match: rules.Match{URLGlob: "*.php"},
			Action: rules.Action{Type: rules.ActionSplit,
				Split: []rules.WeightedBackend{{Backend: c.Backends["srv-1"].Rec, Weight: 1}}}},
		{Name: "css", Priority: 1, Match: rules.Match{URLGlob: "*.css"},
			Action: rules.Action{Type: rules.ActionSplit,
				Split: []rules.WeightedBackend{{Backend: c.Backends["srv-2"].Rec, Weight: 1}}}},
	}
	c.InstallPolicy(vip, rs, nil)

	notes := core.CountNotes(t, c.Net, nil)
	host := c.ClientHost()
	parser := &httpsim.ResponseParser{}
	var bodies []string
	tcp.Dial(host, netsim.HostPort{IP: vip, Port: 80}, tcp.Callbacks{
		OnEstablished: func(conn *tcp.Conn) {
			conn.Write(httpsim.NewRequest("/a.php", "svc").Marshal())
		},
		OnData: func(conn *tcp.Conn, d []byte) {
			resps, err := parser.Feed(d)
			if err != nil {
				t.Errorf("parse: %v", err)
			}
			for _, r := range resps {
				bodies = append(bodies, string(r.Body))
				if len(bodies) == 1 {
					conn.Write(httpsim.NewRequest("/b.css", "svc").Marshal())
				} else {
					conn.Close()
				}
			}
		},
	}, tcp.DefaultConfig())
	c.Net.RunFor(15 * time.Second)
	if len(bodies) != 2 {
		t.Fatalf("got %d responses: %v", len(bodies), bodies)
	}
	if bodies[0] != "from-php-pool" || bodies[1] != "from-css-pool" {
		t.Fatalf("bodies = %v", bodies)
	}
	if n := notes.Of(c.Yoda[0].IP(), "reselect"); n != 1 {
		t.Fatalf("reselections = %d, want 1", n)
	}
	if c.Backends["srv-1"].Server.Requests != 1 || c.Backends["srv-2"].Server.Requests != 1 {
		t.Fatalf("request counts: php=%d css=%d",
			c.Backends["srv-1"].Server.Requests, c.Backends["srv-2"].Server.Requests)
	}
}

func TestInstanceCountersAndStats(t *testing.T) {
	tb := newTestbed(t, 11, 1)
	notes := core.CountNotes(t, tb.C.Net, nil)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	done := false
	cl.Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) { done = r.Err == nil })
	tb.C.Net.RunFor(5 * time.Second)
	if !done {
		t.Fatal("fetch failed")
	}
	in := tb.C.Yoda[0]
	if n := notes.To(in.IP(), "new flow", tb.VIP); n != 1 {
		t.Fatalf("%d new flows noted for the VIP, want 1", n)
	}
	if !in.HasVIP(tb.VIP) {
		t.Fatal("HasVIP false")
	}
	if in.CPU.BusyBefore(tb.C.Net.Now()) == 0 {
		t.Fatal("no CPU charged")
	}
}

func TestVIPRemovalStopsTraffic(t *testing.T) {
	tb := newTestbed(t, 12, 1)
	tb.C.Yoda[0].RemoveRules(tb.VIP)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) { res = r.Clone() })
	tb.C.Net.RunFor(5 * time.Second)
	if res == nil {
		t.Fatal("no result")
	}
	if res.Err == nil && res.Resp.StatusCode != 503 {
		t.Fatalf("expected 503 or failure after rules removed, got %+v", res.Resp)
	}
}

// BenchmarkEventsPerFlow measures event-loop events per completed 100 KB
// fetch through a single Yoda instance: every event the network ran —
// clients and backends included — divided by the flows the instance
// closed, so it compares runs of this one topology only. bench.sh
// records it as events_per_flow.
func BenchmarkEventsPerFlow(b *testing.B) {
	const flows = 50
	for i := 0; i < b.N; i++ {
		c := cluster.New(35)
		c.AddStoreServers(3, memcache.DefaultSimServerConfig())
		objects := map[string][]byte{"/100k": bytes.Repeat([]byte("b"), 100*1024)}
		for j := 1; j <= 3; j++ {
			c.AddBackend(fmt.Sprintf("srv-%d", j), objects, httpsim.DefaultServerConfig())
		}
		c.AddYodaN(1, core.DefaultConfig(), tcpstore.DefaultConfig())
		vip := c.AddVIP("mysite")
		c.InstallPolicy(vip, c.SimpleSplitRules("srv-1", "srv-2", "srv-3"), nil)
		base := c.Net.Executed()
		done := 0
		for j := 0; j < flows; j++ {
			cl := c.NewClient(httpsim.DefaultClientConfig())
			cl.Get(netsim.HostPort{IP: vip, Port: 80}, "/100k", func(r *httpsim.FetchResult) {
				if r.Err == nil {
					done++
				}
			})
		}
		c.Net.RunFor(60 * time.Second)
		if done != flows {
			b.Fatalf("done = %d/%d", done, flows)
		}
		b.ReportMetric(float64(c.Net.Executed()-base)/flows, "events/flow")
	}
}

// TestClientResetMidTunnel: a client that aborts mid-response has its RST
// carried on to the backend, translated into the backend's sequence
// space, and the flow is torn down with its store records.
func TestClientResetMidTunnel(t *testing.T) {
	tb := newTestbed(t, 12, 1)
	backends := map[netsim.HostPort]bool{}
	for _, b := range tb.C.Backends {
		backends[b.Rec.Addr] = true
	}
	var resets []*netsim.Packet
	notes := core.CountNotes(t, tb.C.Net, func(ev netsim.TraceEvent) {
		if p := ev.Packet; p != nil && backends[p.Dst] && p.Flags.Has(netsim.FlagRST) {
			resets = append(resets, p.Clone())
		}
	})
	var got int
	tcp.Dial(tb.C.ClientHost(), tb.Addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(httpsim.NewRequest("/100k", "mysite").MarshalClose()) },
		OnData: func(c *tcp.Conn, d []byte) {
			if got += len(d); got > 10_000 {
				c.Abort()
			}
		},
	}, tcp.DefaultConfig())
	tb.C.Net.RunFor(10 * time.Second)
	// The relayed RST is a bare one; what else the backend sent before it
	// got there finds no flow and draws the store-miss RST|ACK.
	in := tb.C.Yoda[0]
	if len(resets) == 0 || resets[0].Flags != netsim.FlagRST || resets[0].Src.IP != tb.VIP {
		t.Fatalf("RSTs toward the backend %v, want the client's, relayed from the VIP, first", resets)
	}
	if closed := notes.Of(in.IP(), "close"); in.FlowCount() != 0 || closed != 1 {
		t.Fatalf("%d flow entries left, %d closed; want 0 and 1", in.FlowCount(), closed)
	}
	requireStoreEmpty(t, tb.C)
	if n := tb.C.L4.AffinityCount(); n != 0 {
		t.Fatalf("%d affinity entries left", n)
	}
}

// TestClientResetAfterHandshake is defect (j): a client that resets in
// the connection phase, after storage-a committed its record and the
// SYN-ACK went out, leaves neither the record nor a mux entry behind.
func TestClientResetAfterHandshake(t *testing.T) {
	tb := newTestbed(t, 13, 1)
	notes := core.CountNotes(t, tb.C.Net, nil)
	tcp.Dial(tb.C.ClientHost(), tb.Addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Abort() },
	}, tcp.DefaultConfig())
	tb.C.Net.RunFor(10 * time.Second)
	in := tb.C.Yoda[0]
	if closed := notes.Of(in.IP(), "close"); in.FlowCount() != 0 || closed != 1 {
		t.Fatalf("%d flow entries left, %d closed; want 0 and 1", in.FlowCount(), closed)
	}
	requireStoreEmpty(t, tb.C)
	if n := tb.C.L4.AffinityCount(); n != 0 {
		t.Fatalf("%d affinity entries left", n)
	}
}
