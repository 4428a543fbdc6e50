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
	"repro/internal/tcp"
	"repro/internal/tcpstore"
	"repro/internal/testbed"
)

// Tier B event coalescing (DESIGN.md §14) on every endpoint: delayed
// ACKs and 8-segment GSO trains at clients and backends, and a matching
// relay MSS so the instance's request splice forwards assembled bodies
// in GSO-sized packets. These tests re-run the failover e2e scenarios
// under that configuration — recovery must be indistinguishable.

const tierBGSOSegs = 8

func tierBTCP(cfg tcp.Config) tcp.Config {
	cfg.DelayedAck = true
	cfg.GSOSegs = tierBGSOSegs
	return cfg
}

// newTierBTestbed mirrors newTestbed with Tier B coalescing enabled
// end to end. The client keeps the PR 8 idle probe on so delayed ACKs
// and heartbeats coexist in every scenario.
func newTierBTestbed(t *testing.T, seed int64, nYoda int) *testbed.Bed {
	t.Helper()
	return tierBBed(seed, nYoda, false)
}

// tierBBed assembles the cluster by hand — the testbed has no knob for
// the backends' TCP profile, nor for hybrid recovery — and hands it over
// as a Bed to be driven and broken.
func tierBBed(seed int64, nYoda int, hybrid bool) *testbed.Bed {
	c := cluster.New(seed)
	if hybrid {
		c.EnableHybrid(hybridSecret)
	}
	c.AddStoreServers(3, memcache.DefaultSimServerConfig())
	srvCfg := httpsim.DefaultServerConfig()
	srvCfg.TCP = tierBTCP(srvCfg.TCP)
	for i := 1; i <= 3; i++ {
		c.AddBackend(fmt.Sprintf("srv-%d", i), e2eObjects, srvCfg)
	}
	yodaCfg := core.DefaultConfig()
	yodaCfg.RelayMSS = tierBGSOSegs * 1460
	c.AddYodaN(nYoda, yodaCfg, tcpstore.DefaultConfig())
	vip := c.AddVIP("mysite")
	c.InstallPolicy(vip, c.SimpleSplitRules("srv-1", "srv-2", "srv-3"), nil)
	return &testbed.Bed{C: c, VIP: vip, Addr: netsim.HostPort{IP: vip, Port: 80}}
}

func tierBClientConfig() httpsim.ClientConfig {
	cfg := httpsim.DefaultClientConfig()
	cfg.TCP = tierBTCP(cfg.TCP)
	cfg.TCP.IdleProbe = 500 * time.Millisecond
	return cfg
}

// A plain fetch through the Tier B testbed: correct body, and the
// coalescing actually engages (GSO trains sent, ACKs elided).
func TestTierBFetchCoalesces(t *testing.T) {
	tb := newTierBTestbed(t, 31, 2)
	cl := tb.C.NewClient(tierBClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/100k", func(r *httpsim.FetchResult) { res = r })
	tb.C.Net.RunFor(10 * time.Second)
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/100k"]) {
		t.Fatalf("body corrupted: %d bytes", len(res.Resp.Body))
	}
	trains := 0
	for _, b := range tb.C.Backends {
		trains += b.Server.ClosedGSOTrains
	}
	if trains == 0 {
		t.Fatal("backend sent no GSO trains for a 100k response")
	}
	// Elision shows up client-side: the relayed request segments carry
	// PSH (immediate ACK at the backend), but the 100k response arrives
	// at the client as a run of non-PSH segments it may defer.
	if res.Conn == nil || res.Conn.AcksElided == 0 {
		t.Fatal("client elided no ACKs under DelayedAck")
	}
}

// TestTierBFailoverDuringTunnelPhase is TestFailoverDuringTunnelPhase
// with Tier B on: mid-transfer owner death, TCPStore recovery by the
// survivor, body intact — coalesced ACKs and segment trains must not
// confuse the sequence-translation rebuild.
func TestTierBFailoverDuringTunnelPhase(t *testing.T) {
	tb := newTierBTestbed(t, 32, 2)
	cl := tb.C.NewClient(tierBClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/100k", func(r *httpsim.FetchResult) { res = r })
	tb.C.Net.RunFor(200 * time.Millisecond)
	victim := -1
	for i, in := range tb.C.Yoda {
		if in.FlowCount() > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no instance owns the flow yet")
	}
	tb.FailLB(victim) // withdrawn from the mapping a ping interval later
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
	if res.Elapsed() > 10*time.Second {
		t.Fatalf("recovery too slow: %v", res.Elapsed())
	}
}

// TestTierBFailoverDuringConnectionPhase is the §4.2 connection-phase
// kill under Tier B: the client's retransmitted (possibly GSO-sized)
// request must replay cleanly at the successor.
func TestTierBFailoverDuringConnectionPhase(t *testing.T) {
	tb := newTierBTestbed(t, 33, 2)
	cl := tb.C.NewClient(tierBClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/10k", func(r *httpsim.FetchResult) { res = r })
	var victim *core.Instance
	tb.C.Net.Schedule(75*time.Millisecond, func() {
		for _, in := range tb.C.Yoda {
			if in.FlowCount() > 0 {
				victim = in
				in.Fail()
				return
			}
		}
	})
	tb.C.Net.Schedule(675*time.Millisecond, func() {
		if victim != nil {
			tb.C.L4.RemoveInstance(victim.IP())
		}
	})
	tb.C.Net.RunFor(40 * time.Second)
	if victim == nil {
		t.Fatal("no victim found at kill time")
	}
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("connection-phase failover broke the flow: %v", res.Err)
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/10k"]) {
		t.Fatal("body corrupted")
	}
	recovered := uint64(0)
	for _, in := range tb.C.Yoda {
		if in != victim {
			recovered += in.Recovered
		}
	}
	if recovered == 0 {
		t.Fatal("no survivor recovered the connection-phase flow")
	}
}

// BenchmarkEventsPerFlow measures event-loop events consumed per
// completed client flow through a single Yoda instance — the macro
// payoff of the coalescing tiers (DESIGN.md §14). tierb=off is the
// wire-identical Tier A baseline; tierb=on adds delayed ACKs and GSO
// trains end to end. bench.sh keys both figures into BENCH_core.json.
func BenchmarkEventsPerFlow(b *testing.B) {
	const flows = 50
	for _, tierb := range []bool{false, true} {
		name := "tierb=off"
		if tierb {
			name = "tierb=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cluster.New(35)
				c.AddStoreServers(3, memcache.DefaultSimServerConfig())
				objects := map[string][]byte{"/100k": bytes.Repeat([]byte("b"), 100*1024)}
				srvCfg := httpsim.DefaultServerConfig()
				yodaCfg := core.DefaultConfig()
				clCfg := httpsim.DefaultClientConfig()
				if tierb {
					srvCfg.TCP = tierBTCP(srvCfg.TCP)
					yodaCfg.RelayMSS = tierBGSOSegs * 1460
					clCfg.TCP = tierBTCP(clCfg.TCP)
				}
				for j := 1; j <= 3; j++ {
					c.AddBackend(fmt.Sprintf("srv-%d", j), objects, srvCfg)
				}
				c.AddYodaN(1, yodaCfg, tcpstore.DefaultConfig())
				vip := c.AddVIP("mysite")
				c.InstallPolicy(vip, c.SimpleSplitRules("srv-1", "srv-2", "srv-3"), nil)
				vipHP := netsim.HostPort{IP: vip, Port: 80}
				done := 0
				for j := 0; j < flows; j++ {
					cl := c.NewClient(clCfg)
					cl.Get(vipHP, "/100k", func(r *httpsim.FetchResult) {
						if r.Err == nil {
							done++
						}
					})
				}
				c.Net.RunFor(60 * time.Second)
				if done != flows {
					b.Fatalf("done = %d/%d", done, flows)
				}
				epf := c.Yoda[0].EventsPerFlow()
				if epf <= 0 {
					b.Fatal("EventsPerFlow reported zero")
				}
				b.ReportMetric(epf, "events/flow")
			}
		})
	}
}

// newTierBHybridTestbed layers Tier B onto the hybrid testbed: the
// derivation table, deterministic backend ISNs, and cookie knocks all
// have to work with coalesced ACKs.
func newTierBHybridTestbed(t *testing.T, seed int64, nYoda int) *testbed.Bed {
	t.Helper()
	return tierBBed(seed, nYoda, true)
}

// TestTierBHybridKnockWithDelayedAcks: kill the owner mid-transfer in
// hybrid mode with Tier B on everywhere. Recovery leans on the client
// idle probe and server-side cookie knock; delayed ACKs must neither
// starve those packets (they are bare ACKs, never deferred) nor
// duplicate them (the probe subsumes a pending deferred ACK).
func TestTierBHybridKnockWithDelayedAcks(t *testing.T) {
	tb := newTierBHybridTestbed(t, 34, 2)
	cl := tb.C.NewClient(tierBClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/100k", func(r *httpsim.FetchResult) { res = r })
	tb.C.Net.RunFor(200 * time.Millisecond)
	victim := -1
	for i, in := range tb.C.Yoda {
		if in.FlowCount() > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no instance owns the flow yet")
	}
	if rt := tb.C.Yoda[victim].Store().Stats.RoundTrips; rt != 0 {
		t.Fatalf("flow hit the store before failure: %d round trips", rt)
	}
	tb.FailLB(victim) // withdrawn from the mapping a ping interval later
	tb.C.Net.RunFor(30 * time.Second)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("flow broke despite derivation: %v (timedout=%v)", res.Err, res.TimedOut)
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/100k"]) {
		t.Fatalf("body corrupted across failover: %d bytes", len(res.Resp.Body))
	}
	survivor := tb.C.Yoda[1-victim]
	if survivor.DerivedRecoveries == 0 {
		t.Fatal("survivor never derived a flow")
	}
	if res.Elapsed() > 10*time.Second {
		t.Fatalf("recovery too slow: %v", res.Elapsed())
	}
	if survivor.EventsPerFlow() < 0 {
		t.Fatal("EventsPerFlow went negative")
	}
}
