package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/l4lb"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
	"repro/internal/testbed"
)

const hybridSecret = 0xfeedfacecafef00d

// newHybridTestbed mirrors newTestbed with hybrid recovery enabled: one
// shared derivation table, backends using the deterministic ISN key.
// Hybrid has to be on before the first component exists, so the cluster
// is assembled here and only driven and broken through the Bed.
func newHybridTestbed(t *testing.T, seed int64, nYoda int) *testbed.Bed {
	t.Helper()
	c := cluster.New(seed)
	c.EnableHybrid(hybridSecret)
	c.AddStoreServers(3, memcache.DefaultSimServerConfig())
	for i := 1; i <= 3; i++ {
		c.AddBackend(fmt.Sprintf("srv-%d", i), e2eObjects, httpsim.DefaultServerConfig())
	}
	c.AddYodaN(nYoda, core.DefaultConfig(), tcpstore.DefaultConfig())
	vip := c.AddVIP("mysite")
	c.InstallPolicy(vip, c.SimpleSplitRules("srv-1", "srv-2", "srv-3"), nil)
	return &testbed.Bed{C: c, VIP: vip, Addr: netsim.HostPort{IP: vip, Port: 80}}
}

// probeClientConfig enables the client-side idle probe that lets a
// response-in-flight flow trigger recovery from the client direction.
func probeClientConfig() httpsim.ClientConfig {
	cfg := httpsim.DefaultClientConfig()
	cfg.TCP.IdleProbe = 500 * time.Millisecond
	return cfg
}

// TestHybridVanillaFlowSkipsStore: a plain HTTP flow in hybrid mode
// completes without a single TCPStore round trip — both barriers are
// elided by derivation and teardown has nothing to delete.
func TestHybridVanillaFlowSkipsStore(t *testing.T) {
	tb := newHybridTestbed(t, 21, 1)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/10k", keep(&res))
	tb.C.Net.RunFor(10 * time.Second)
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/10k"]) {
		t.Fatal("body corrupted")
	}
	in := tb.C.Yoda[0]
	if in.Barrier.Skipped < 2 {
		t.Fatalf("Barrier.Skipped = %d, want >= 2 (storage-a and storage-b)", in.Barrier.Skipped)
	}
	if rt := in.Store().Stats.RoundTrips; rt != 0 {
		t.Fatalf("store round trips = %d, want 0 for a derivable flow", rt)
	}
	requireStoreEmpty(t, tb.C) // nothing is written for a derivable flow
}

// TestHybridDifferentialOracle is the oracle check: the record the
// store-backed path persists for a flow (obtained by flushing it
// mid-tunnel) must be byte-identical to the record the stateless
// derivation reconstructs — same backend, same SNAT tuple, same C, S,
// Delta, same serialization.
func TestHybridDifferentialOracle(t *testing.T) {
	runOnce := func(seed int64) (skipped, roundTrips uint64) {
		tb := newHybridTestbed(t, seed, 1)
		in := tb.C.Yoda[0]
		host := tb.C.ClientHost()
		req := httpsim.NewRequest("/100k", "mysite")
		req.SetHeader("Connection", "close")
		tcp.Dial(host, tb.Addr, tcp.Callbacks{
			OnEstablished: func(c *tcp.Conn) { c.Write(req.Marshal()) },
		}, tcp.DefaultConfig())
		tb.C.Net.RunFor(250 * time.Millisecond)

		flows := in.SnapshotFlows()
		if len(flows) != 1 {
			t.Fatalf("live flows = %d, want 1", len(flows))
		}
		fi := flows[0]
		if fi.Persisted {
			t.Fatal("vanilla close-mode flow was persisted; expected derivable")
		}
		ct := netsim.FourTuple{Src: fi.Client, Dst: fi.VIP}

		// Independent derivation from the shared table.
		tbl := tb.C.Hybrid
		b, ok := tbl.DeriveBackend(fi.VIP.IP, ct)
		if !ok {
			t.Fatal("pool not derivable")
		}
		port, ok := tbl.PreferredPort(in.IP(), ct)
		if !ok {
			t.Fatal("no preferred port")
		}
		snat := netsim.HostPort{IP: fi.VIP.IP, Port: port}
		s := tcp.DeterministicISN(tbl.ISNKey(), b.Addr, snat)
		if fi.Server != b.Addr || fi.SNAT != snat || fi.S != s || fi.Delta != fi.C-s {
			t.Fatalf("derivation mismatch: flow=%+v derived backend=%v snat=%v s=%d", fi, b.Addr, snat, s)
		}

		// Flush the flow through the store-backed path and read the record
		// back: it must serialize identically to the derived one.
		if n := in.FlushUnpersisted(); n != 1 {
			t.Fatalf("flushed %d flows, want 1", n)
		}
		var stored []byte
		key := core.AppendFlowKey(nil, ct)
		in.Store().Get(key, func(v []byte, ok bool, err error) {
			if ok && err == nil {
				stored = append([]byte(nil), v...)
			}
		})
		tb.C.Net.RunFor(time.Second)
		if stored == nil {
			t.Fatal("flushed record not readable")
		}
		rec, err := core.UnmarshalRecord(stored)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		derived := core.Record{
			Phase:       core.PhaseTunnel,
			Client:      fi.Client,
			VIP:         fi.VIP,
			ClientISN:   rec.ClientISN, // pinned by the client's packets, not the store
			Server:      b.Addr,
			SNAT:        snat,
			C:           fi.C,
			S:           s,
			Delta:       fi.C - s,
			BackendName: b.Name,
		}
		if got := derived.AppendMarshal(nil); !bytes.Equal(got, stored) {
			t.Fatalf("derived record differs from stored:\n  derived: %x\n  stored:  %x", got, stored)
		}
		tb.C.Net.RunFor(10 * time.Second)
		return in.Barrier.Skipped, in.Store().Stats.RoundTrips
	}

	// Residue classification must be stable across identical runs.
	s1, r1 := runOnce(22)
	s2, r2 := runOnce(22)
	if s1 != s2 || r1 != r2 {
		t.Fatalf("classification unstable across runs: skipped %d vs %d, round trips %d vs %d", s1, s2, r1, r2)
	}
}

// TestHybridFailoverTunnelDerived kills the owning instance mid-transfer
// and requires the survivor to rebuild the tunnel by derivation alone —
// no store record ever existed for the flow.
func TestHybridFailoverTunnelDerived(t *testing.T) {
	tb := newHybridTestbed(t, 23, 2)
	cl := tb.C.NewClient(probeClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/100k", keep(&res))
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
	requireStoreEmpty(t, tb.C) // the repair write's records go at teardown
}

// TestHybridFailoverConnPhase kills the owner between SYN-ACK and the
// request: the client's retransmitted request carries everything the
// successor needs to replay the connection phase.
func TestHybridFailoverConnPhase(t *testing.T) {
	tb := newHybridTestbed(t, 24, 2)
	cl := tb.C.NewClient(probeClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/10k", keep(&res))
	victim := -1
	tb.C.Net.Schedule(75*time.Millisecond, func() {
		for i, in := range tb.C.Yoda {
			if in.FlowCount() > 0 {
				victim = i
				tb.C.KillYoda(i)
				return
			}
		}
	})
	tb.C.Net.Schedule(675*time.Millisecond, func() {
		if victim >= 0 {
			tb.C.L4.RemoveInstance(tb.C.Yoda[victim].IP())
		}
	})
	tb.C.Net.RunFor(40 * time.Second)
	if victim < 0 {
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
	survivor := tb.C.Yoda[1-victim]
	if survivor.DerivedRecoveries == 0 {
		t.Fatal("survivor never derived the connection-phase flow")
	}
}

// TestUnpersistedFlowsLiveOnTheirHead: with the first of three instances
// dead and withdrawn, the tuples whose rendezvous chain it heads land on
// the survivors. None of those flows may stay unpersisted there: an
// orphan's one derivation candidate is its head, so a flow left
// unpersisted off its head would have two once its survivor died too.
func TestUnpersistedFlowsLiveOnTheirHead(t *testing.T) {
	tb := newHybridTestbed(t, 31, 3)
	var entry []netsim.IP
	for _, in := range tb.C.Yoda {
		entry = append(entry, in.IP())
	}
	tb.FailLB(0)
	tb.C.Net.RunFor(time.Second)
	for i := 0; i < 30; i++ {
		tb.C.NewClient(probeClientConfig()).Get(tb.Addr, "/100k", func(*httpsim.FetchResult) {})
	}
	tb.C.Net.RunFor(100 * time.Millisecond)
	flows, offHead := 0, 0
	for _, in := range tb.C.Yoda[1:] {
		for _, fi := range in.SnapshotFlows() {
			flows++
			if l4lb.Rendezvous(netsim.FourTuple{Src: fi.Client, Dst: fi.VIP}, entry) == in.IP() {
				continue
			}
			offHead++
			if !fi.Persisted {
				t.Errorf("flow %v lives unpersisted on %v, off the head of its chain", fi.Client, in.IP())
			}
		}
	}
	if flows != 30 || offHead == 0 {
		t.Fatalf("%d flows on the survivors, %d off their head: want 30, some of them off it", flows, offHead)
	}
	t.Logf("%d of %d flows off their head, every one persisted", offHead, flows)
}

// TestHybridEpochRollover: a flow established before an epoch bump is
// flushed to the store by the bump; after its owner dies, the successor
// must recover it through the store record (which wins over derivation)
// and never mis-derive against the new epoch's entry.
func TestHybridEpochRollover(t *testing.T) {
	tb := newHybridTestbed(t, 25, 2)
	cl := tb.C.NewClient(probeClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/100k", keep(&res))
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
	epochBefore := tb.C.Hybrid.Epoch()
	tb.C.HybridRefresh() // planned reconfig: bump + flush
	if tb.C.Hybrid.Epoch() == epochBefore {
		t.Fatal("epoch did not advance")
	}
	tb.C.Net.RunFor(100 * time.Millisecond) // let the flush writes land
	flows := tb.C.Yoda[victim].SnapshotFlows()
	if len(flows) != 1 || !flows[0].Persisted {
		t.Fatalf("flow not persisted after epoch flush: %+v", flows)
	}
	tb.FailLB(victim) // withdrawn from the mapping a ping interval later
	tb.C.Net.RunFor(30 * time.Second)
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/100k"]) {
		t.Fatal("body corrupted: the successor mis-derived the pre-bump flow")
	}
	survivor := tb.C.Yoda[1-victim]
	if survivor.Recovered == 0 {
		t.Fatal("successor did not recover the pre-bump flow through the store")
	}
}

// BenchmarkStoreRoundTripsPerFlow measures the store economy headline as
// a first-class metric: TCPStore round trips per vanilla HTTP flow, in
// the paper-faithful mode and the hybrid derivation mode. bench.sh keys
// the two roundtrips/flow figures into BENCH_core.json.
func BenchmarkStoreRoundTripsPerFlow(b *testing.B) {
	const flows = 50
	for _, mode := range []string{"paper", "hybrid"} {
		b.Run("mode="+mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cluster.New(27)
				if mode == "hybrid" {
					c.EnableHybrid(hybridSecret)
				}
				c.AddStoreServers(3, memcache.DefaultSimServerConfig())
				objects := map[string][]byte{"/tiny": []byte("ok")}
				for j := 1; j <= 3; j++ {
					c.AddBackend(fmt.Sprintf("srv-%d", j), objects, httpsim.DefaultServerConfig())
				}
				c.AddYodaN(2, core.DefaultConfig(), tcpstore.DefaultConfig())
				vip := c.AddVIP("mysite")
				c.InstallPolicy(vip, c.SimpleSplitRules("srv-1", "srv-2", "srv-3"), nil)
				vipHP := netsim.HostPort{IP: vip, Port: 80}
				done := 0
				for j := 0; j < flows; j++ {
					cl := c.NewClient(httpsim.DefaultClientConfig())
					cl.Get(vipHP, "/tiny", func(r *httpsim.FetchResult) {
						if r.Err == nil {
							done++
						}
					})
				}
				c.Net.RunFor(30 * time.Second)
				if done != flows {
					b.Fatalf("done = %d/%d", done, flows)
				}
				var rt uint64
				for _, in := range c.Yoda {
					rt += in.Store().Stats.RoundTrips
				}
				b.ReportMetric(float64(rt)/flows, "roundtrips/flow")
			}
		})
	}
}

// TestHybridRoundTripsHalved is the headline economy check: store round
// trips per vanilla HTTP flow in hybrid mode must be at least 2x lower
// than the paper-faithful mode on the same workload.
func TestHybridRoundTripsHalved(t *testing.T) {
	const N = 20
	run := func(hybrid bool) uint64 {
		var tb *testbed.Bed
		if hybrid {
			tb = newHybridTestbed(t, 26, 2)
		} else {
			tb = newTestbed(t, 26, 2)
		}
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
			t.Fatalf("done = %d/%d (hybrid=%v)", done, N, hybrid)
		}
		var rt uint64
		for _, in := range tb.C.Yoda {
			rt += in.Store().Stats.RoundTrips
		}
		return rt
	}
	paper := run(false)
	hybrid := run(true)
	if paper == 0 {
		t.Fatal("paper mode performed no store round trips; metric broken")
	}
	if hybrid*2 > paper {
		t.Fatalf("round trips: hybrid=%d paper=%d, want hybrid <= paper/2", hybrid, paper)
	}
	t.Logf("store round trips for %d flows: paper=%d hybrid=%d", N, paper, hybrid)
}

// TestHybridKeepAliveSwitchPersists: a stateless keep-alive flow skips
// storage-a and its first storage-b, but a request that switches it to
// another backend re-dials and writes storage-b — the rebased Δ is
// nothing a derivation reproduces. After its owner dies, the survivor
// reads that record and the next request reaches the new backend.
func TestHybridKeepAliveSwitchPersists(t *testing.T) {
	tb := newHybridTestbed(t, 32, 2)
	c := tb.C
	servedBy := func(before map[string]int) string {
		for name, b := range c.Backends {
			if b.Server.Requests != before[name] {
				return name
			}
		}
		return ""
	}
	counts := func() map[string]int {
		m := map[string]int{}
		for name, b := range c.Backends {
			m[name] = b.Server.Requests
		}
		return m
	}
	parser := &httpsim.ResponseParser{}
	var served []string
	var before map[string]int
	var conn *tcp.Conn
	send := func() {
		before = counts()
		conn.Write(httpsim.NewRequest("/tiny", "mysite").Marshal())
	}
	switched := func() bool {
		return c.Yoda[0].Reselections+c.Yoda[1].Reselections > 0
	}
	conn = tcp.Dial(c.ClientHost(), tb.Addr, tcp.Callbacks{
		OnEstablished: func(*tcp.Conn) { send() },
		OnData: func(_ *tcp.Conn, d []byte) {
			resps, err := parser.Feed(d)
			if err != nil {
				t.Errorf("client parse: %v", err)
			}
			for range resps {
				served = append(served, servedBy(before))
				if !switched() && len(served) < 20 {
					send()
				}
			}
		},
	}, tcp.DefaultConfig())
	c.Net.RunFor(5 * time.Second)
	owner := 0
	if c.Yoda[1].FlowCount() > 0 {
		owner = 1
	}
	in := c.Yoda[owner]
	if !switched() || in.Barrier.Skipped != 2 || in.Barrier.Commits != 1 {
		t.Fatalf("after %d requests: %d switches, %d barriers skipped, %d written; want 1, 2 (storage-a, the first storage-b) and 1 (the re-dial's)", len(served), in.Reselections, in.Barrier.Skipped, in.Barrier.Commits)
	}
	tb.FailLB(owner)
	c.Net.RunFor(time.Second)
	send()
	c.Net.RunFor(30 * time.Second)
	survivor := c.Yoda[1-owner]
	n := len(served)
	if n < 3 || served[n-1] != served[n-2] || survivor.Recovered != 1 || survivor.DerivedRecoveries != 0 {
		t.Fatalf("served by %v; survivor recovered %d from the store, %d by derivation; want the last two by one backend, 1 and 0", served, survivor.Recovered, survivor.DerivedRecoveries)
	}
}
