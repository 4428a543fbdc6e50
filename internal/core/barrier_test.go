package core_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// barrierTestbed builds a one-instance cluster whose TCPStore servers
// are all dead before the first client packet, so every write barrier
// resolves by OpTimeout with nothing persisted.
func barrierTestbed(t *testing.T, coreCfg core.Config, storeCfg tcpstore.Config) (*cluster.Cluster, netsim.HostPort) {
	t.Helper()
	tb := testbed.New(testbed.Config{
		Seed: 7, Objects: map[string][]byte{"/x": workload.SynthBody("/x", 2048)},
		Backends: 1, Stores: 2, LBs: 1, Instance: &coreCfg, Store: &storeCfg,
	})
	for _, s := range tb.C.StoreServers {
		s.Host().Detach()
	}
	return tb.C, tb.Addr
}

// TestBarrierDelaysSynAckDuringStoreOutage pins the §4.1 ordering at the
// packet level: when every store server is unreachable, the SYN-ACK must
// not be sent until the storage-a barrier resolves (at OpTimeout) — the
// instance never ACKs first and persists later. Under the default
// degrade-and-proceed policy the handshake then completes.
func TestBarrierDelaysSynAckDuringStoreOutage(t *testing.T) {
	storeCfg := tcpstore.DefaultConfig()
	c, vipHP := barrierTestbed(t, core.DefaultConfig(), storeCfg)

	h := c.ClientHost()
	var start, established time.Duration
	c.Net.Schedule(10*time.Millisecond, func() {
		start = c.Net.Now()
		tcp.Dial(h, vipHP, tcp.Callbacks{
			OnEstablished: func(*tcp.Conn) {
				if established == 0 {
					established = c.Net.Now()
				}
			},
		}, tcp.DefaultConfig())
	})
	c.Net.RunFor(5 * time.Second)

	if established == 0 {
		t.Fatal("handshake never completed: degrade-and-proceed must still SYN-ACK after the barrier resolves")
	}
	wait := established - start
	if wait < storeCfg.OpTimeout {
		t.Fatalf("SYN-ACK after %v, before the %v store OpTimeout: handshake ACKed before persistence resolved", wait, storeCfg.OpTimeout)
	}
	if wait > storeCfg.OpTimeout+time.Second {
		t.Fatalf("SYN-ACK after %v: barrier did not resolve at the %v OpTimeout", wait, storeCfg.OpTimeout)
	}
	in := c.Yoda[0]
	if in.Barrier.Commits != 0 {
		t.Fatalf("Barrier.Commits = %d with every replica dead", in.Barrier.Commits)
	}
	if in.Barrier.Degraded == 0 || in.Barrier.Timeouts == 0 {
		t.Fatalf("barrier outcome not accounted: %+v", in.Barrier)
	}
}

// TestStrictPersistDropsUnrecoverableHandshakes flips the barrier's
// failure path on: with StrictPersist and a dead store, the SYN is never
// answered — the flow aborts instead of being acknowledged in a state
// the cluster cannot recover.
func TestStrictPersistDropsUnrecoverableHandshakes(t *testing.T) {
	coreCfg := core.DefaultConfig()
	coreCfg.StrictPersist = true
	c, vipHP := barrierTestbed(t, coreCfg, tcpstore.DefaultConfig())

	h := c.ClientHost()
	established := false
	c.Net.Schedule(10*time.Millisecond, func() {
		tcp.Dial(h, vipHP, tcp.Callbacks{
			OnEstablished: func(*tcp.Conn) { established = true },
		}, tcp.DefaultConfig())
	})
	c.Net.RunFor(5 * time.Second)

	if established {
		t.Fatal("StrictPersist handshake completed despite an unrecoverable flow record")
	}
	in := c.Yoda[0]
	if in.Barrier.Aborted == 0 {
		t.Fatalf("no aborted barriers accounted: %+v", in.Barrier)
	}
	if in.FlowCount() != 0 {
		t.Fatalf("aborted flows leaked: FlowCount = %d", in.FlowCount())
	}
}

// TestSNATExhaustionRejectsDials is the regression test for the silent
// port-reuse bug: with a single-port SNAT slice, concurrent dials past
// the first must be rejected with a 503 and counted, never spliced onto
// the in-use port.
func TestSNATExhaustionRejectsDials(t *testing.T) {
	coreCfg := core.DefaultConfig()
	coreCfg.SNATCount = 1
	tb := testbed.New(testbed.Config{
		Seed: 13, Objects: map[string][]byte{"/x": workload.SynthBody("/x", 400_000)},
		Backends: 1, Stores: 2, LBs: 1, Instance: &coreCfg,
	})
	c, vipHP := tb.C, tb.Addr
	done, ok200, rejected := 0, 0, 0
	const flows = 4
	for i := 0; i < flows; i++ {
		cl := c.NewClient(httpsim.DefaultClientConfig())
		cl.Get(vipHP, "/x", func(r *httpsim.FetchResult) {
			done++
			switch {
			case r.Err == nil && r.Resp.StatusCode == 200:
				ok200++
			case r.Err == nil && r.Resp.StatusCode == 503:
				rejected++
			}
		})
	}
	c.Net.RunFor(time.Minute)

	if done != flows {
		t.Fatalf("done = %d of %d: a rejected dial hung instead of answering", done, flows)
	}
	if ok200 == 0 {
		t.Fatal("no flow succeeded: the single SNAT port was never usable")
	}
	if rejected == 0 {
		t.Fatal("no flow was rejected: concurrent dials shared the one SNAT port")
	}
	st := c.Yoda[0].Stats[tb.VIP]
	if st == nil || st.SNATExhausted == 0 {
		t.Fatalf("SNATExhausted not counted (stats: %+v)", st)
	}
	if int(st.SNATExhausted) != rejected {
		t.Fatalf("SNATExhausted = %d, want %d (one per rejected dial)", st.SNATExhausted, rejected)
	}
}
