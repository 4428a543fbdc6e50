package core_test

import (
	"bytes"
	"fmt"
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

// keep returns a done that stores the fetch's result in *res with its
// body copied out: Client.Fetch lends the body only until done returns.
func keep(res **httpsim.FetchResult) func(*httpsim.FetchResult) {
	return func(r *httpsim.FetchResult) {
		if r.Resp != nil {
			r.Resp.Body = bytes.Clone(r.Resp.Body)
		}
		*res = r
	}
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
		if in.FlowCount() >= 0 { // flows are cleaned up; check stats instead
		}
		st := in.ReadStats()
		if st[tb.VIP] != nil && st[tb.VIP].NewFlows > 0 {
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
	cl.Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) { res = r })
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
}

// TestKillOwnerAtEveryStep kills the instance that owns one /100k fetch
// after each event step of the fetch's life in turn — the connection
// phase, both barriers, the tunnel and the close — and checks the paper's
// claim at every one: the body arrives intact, every instance ends with no
// flow state, the store ends empty, and no survivor adopts the flow twice.
// Two survivors may each adopt it once: the client's segments and the
// backend's are remapped independently, which is why storage-b writes the
// record under both tuples (seed 14 does this from step 33 on).
//
// The hybrid arm runs the same sweep with its flows stateless and a
// probing client, and pins two windows. Defect (f): a kill after step 12,
// 13 or 14 of 35 lands after the backend ACKed the request and before
// any response byte reached the client. The client then sends only idle
// probes at C+1, which one survivor suppresses as ambiguous, while the
// backend's retransmissions reach the other survivor through the SNAT
// remap, where the current-cookie store miss is suppressed too: the two
// halves of the evidence never meet, and the fetch times out. Defect
// (g): after a kill at step 34 or 35 the backend's FIN went out through
// the dead owner, so the survivor that derived the flow from the
// client's FIN never sees it; its copy outlives the 3-minute settle and
// is collected by the idle sweep one idle timeout later.
func TestKillOwnerAtEveryStep(t *testing.T) {
	never := func(int) bool { return false }
	arms := []struct {
		name     string
		bed      func(t *testing.T, seed int64, nYoda int) *testbed.Bed
		client   httpsim.ClientConfig
		timesOut func(k int) bool // defect (f)
		lingers  func(k int) bool // defect (g)
	}{
		{"paper", newTestbed, httpsim.DefaultClientConfig(), never, never},
		{"hybrid", newHybridTestbed, probeClientConfig(),
			func(k int) bool { return k >= 12 && k <= 14 },
			func(k int) bool { return k == 34 || k == 35 }},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			for seed := int64(11); seed <= 15; seed++ {
				// run fetches with the busiest instance killed after kill steps (no
				// kill when kill < 0), reporting the steps the fetch took.
				run := func(kill int) (tb *testbed.Bed, res *httpsim.FetchResult, steps int) {
					tb = arm.bed(t, seed, 3)
					tb.C.NewClient(arm.client).Get(tb.Addr, "/100k", keep(&res))
					for ; res == nil && steps != kill && tb.C.Net.Step(); steps++ {
					}
					if kill >= 0 {
						tb.FailBusiest(1)
					}
					tb.C.Net.RunFor(3 * time.Minute)
					return tb, res, steps
				}
				_, _, total := run(-1)
				for k := 0; k <= total; k++ {
					tb, res, _ := run(k)
					if arm.timesOut(k) {
						if res == nil || !res.TimedOut {
							t.Fatalf("seed %d, kill after step %d of %d: fetch %+v, want the timeout of defect (f) — if it is fixed, drop the window", seed, k, total, res)
						}
					} else if res == nil || res.Err != nil || !bytes.Equal(res.Resp.Body, e2eObjects["/100k"]) {
						t.Fatalf("seed %d, kill after step %d of %d: fetch %+v", seed, k, total, res)
					}
					if arm.lingers(k) {
						n := 0
						for _, in := range tb.C.Yoda {
							n += in.ClientFlowCount()
						}
						if n != 1 {
							t.Fatalf("seed %d, kill after step %d of %d: %d flows left after settling, want the one lingering copy of defect (g) — if it is fixed, drop the window", seed, k, total, n)
						}
						tb.C.Net.RunFor(core.DefaultConfig().FlowIdleTimeout)
					}
					for i, in := range tb.C.Yoda {
						if n := in.FlowCount(); n != 0 {
							t.Fatalf("seed %d, kill after step %d: instance %d holds %d flow entries", seed, k, i, n)
						}
						if n := in.Recovered + in.DerivedRecoveries; n > 1 {
							t.Fatalf("seed %d, kill after step %d: instance %d adopted the flow %d times", seed, k, i, n)
						}
					}
					for i, s := range tb.C.StoreServers {
						if items := s.Engine.Stats().CurrItems; items != 0 {
							t.Fatalf("seed %d, kill after step %d: store server %d holds %d records", seed, k, i, items)
						}
					}
				}
			}
		})
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
	cl.Get(netsim.HostPort{IP: vip, Port: 80}, "/not-a-jpg", func(r *httpsim.FetchResult) { res = r })
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
	if tb.C.Yoda[0].Reselections != 0 {
		t.Fatalf("unexpected backend switch: %d", tb.C.Yoda[0].Reselections)
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
	if c.Yoda[0].Reselections != 1 {
		t.Fatalf("reselections = %d, want 1", c.Yoda[0].Reselections)
	}
	if c.Backends["srv-1"].Server.Requests != 1 || c.Backends["srv-2"].Server.Requests != 1 {
		t.Fatalf("request counts: php=%d css=%d",
			c.Backends["srv-1"].Server.Requests, c.Backends["srv-2"].Server.Requests)
	}
}

func TestInstanceCountersAndStats(t *testing.T) {
	tb := newTestbed(t, 11, 1)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	done := false
	cl.Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) { done = r.Err == nil })
	tb.C.Net.RunFor(5 * time.Second)
	if !done {
		t.Fatal("fetch failed")
	}
	in := tb.C.Yoda[0]
	st := in.ReadStats()
	vs := st[tb.VIP]
	if vs == nil || vs.NewFlows != 1 || vs.Packets == 0 {
		t.Fatalf("stats: %+v", vs)
	}
	// ReadStats resets.
	st2 := in.ReadStats()
	if st2[tb.VIP] != nil {
		t.Fatal("stats not reset")
	}
	if in.RuleCount() != 1 {
		t.Fatalf("rule count = %d", in.RuleCount())
	}
	if !in.HasVIP(tb.VIP) {
		t.Fatal("HasVIP false")
	}
	if in.CPU.BusyTotal() == 0 {
		t.Fatal("no CPU charged")
	}
}

func TestVIPRemovalStopsTraffic(t *testing.T) {
	tb := newTestbed(t, 12, 1)
	tb.C.Yoda[0].RemoveRules(tb.VIP)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) { res = r })
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
		if closed := c.Yoda[0].FlowsClosed; done != flows || closed == 0 {
			b.Fatalf("done = %d/%d, %d flows closed", done, flows, closed)
		}
		b.ReportMetric(float64(c.Net.Executed()-base)/float64(c.Yoda[0].FlowsClosed), "events/flow")
	}
}
