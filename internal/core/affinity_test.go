package core_test

import (
	"testing"
	"time"

	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/testbed"
)

// heldConn is a client keep-alive connection that asked for one object
// and, answered, stays open.
type heldConn struct {
	conn    *tcp.Conn
	parser  httpsim.ResponseParser
	answers []string
}

// hold opens k keep-alive connections to the bed's VIP, each asking for
// /tiny once.
func hold(t *testing.T, tb *testbed.Bed, k int) []*heldConn {
	t.Helper()
	held := make([]*heldConn, k)
	for i := range held {
		h := &heldConn{}
		held[i] = h
		h.conn = tcp.Dial(tb.C.ClientHost(), tb.Addr, tcp.Callbacks{
			OnEstablished: func(c *tcp.Conn) { c.Write(httpsim.NewRequest("/tiny", "mysite").Marshal()) },
			OnData: func(c *tcp.Conn, d []byte) {
				resps, err := h.parser.Feed(d)
				if err != nil {
					t.Errorf("client parse: %v", err)
					return
				}
				for _, r := range resps {
					h.answers = append(h.answers, string(r.Body))
				}
			},
		}, tcp.DefaultConfig())
	}
	return held
}

// requireAnswered fails unless every held connection has n answers, all
// the /tiny object.
func requireAnswered(t *testing.T, held []*heldConn, n int) {
	t.Helper()
	for i, h := range held {
		if len(h.answers) != n {
			t.Fatalf("held flow %d: %d answers %q, want %d", i, len(h.answers), h.answers, n)
		}
		for _, a := range h.answers {
			if a != string(e2eObjects["/tiny"]) {
				t.Fatalf("held flow %d answered %q", i, a)
			}
		}
	}
}

// TestAffinityLivesWithItsFlow: a mux affinity entry goes when its flow
// does. Closed fetches leave none; a held keep-alive flow holds two, its
// client tuple's and its SNAT return tuple's, until it closes.
func TestAffinityLivesWithItsFlow(t *testing.T) {
	tb := newTestbed(t, 31, 2)
	const n = 20
	done := 0
	for i := 0; i < n; i++ {
		tb.C.NewClient(httpsim.DefaultClientConfig()).Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) {
			if r.Err == nil {
				done++
			}
		})
	}
	tb.C.Net.RunFor(10 * time.Second) // includes the linger
	if done != n {
		t.Fatalf("%d of %d fetches done", done, n)
	}
	if got := tb.C.L4.AffinityCount(); got != 0 {
		t.Fatalf("%d closed fetches left %d affinity entries, want 0", n, got)
	}

	const k = 5
	held := hold(t, tb, k)
	tb.C.Net.RunFor(5 * time.Second)
	requireAnswered(t, held, 1)
	if got := tb.C.L4.AffinityCount(); got != 2*k {
		t.Fatalf("%d held flows hold %d affinity entries, want %d", k, got, 2*k)
	}
	for _, h := range held {
		h.conn.Close()
	}
	tb.C.Net.RunFor(10 * time.Second)
	if got := tb.C.L4.AffinityCount(); got != 0 {
		t.Fatalf("closed held flows left %d affinity entries, want 0", got)
	}
	requireStoreEmpty(t, tb.C)
}

// TestPinnedFlowSurvivesScaleOut: a flow pinned before a scale-out keeps
// its instance through the staggered mapping update — its next request is
// answered without any instance recovering it — while new flows reach the
// new instance.
func TestPinnedFlowSurvivesScaleOut(t *testing.T) {
	tb := newTestbed(t, 32, 3)
	ips := func(n int) []netsim.IP {
		var out []netsim.IP
		for _, in := range tb.C.Yoda[:n] {
			out = append(out, in.IP())
		}
		return out
	}
	tb.C.L4.SetMappingNow(tb.VIP, ips(2))
	const k = 16
	held := hold(t, tb, k)
	tb.C.Net.RunFor(5 * time.Second)
	requireAnswered(t, held, 1)
	before := [2]int{tb.C.Yoda[0].ClientFlowCount(), tb.C.Yoda[1].ClientFlowCount()}

	tb.C.L4.SetMapping(tb.VIP, ips(3))
	tb.C.Net.RunFor(time.Second) // past the worst-case stagger
	if !tb.C.L4.Converged(tb.VIP, ips(3)) {
		t.Fatal("mapping did not converge")
	}
	for _, h := range held {
		h.conn.Write(httpsim.NewRequest("/tiny", "mysite").Marshal())
	}
	tb.C.Net.RunFor(5 * time.Second)
	requireAnswered(t, held, 2)
	for i, in := range tb.C.Yoda {
		if in.Recovered != 0 || in.LookupMisses != 0 {
			t.Fatalf("instance %d recovered %d flows, missed %d lookups: a pin was lost", i, in.Recovered, in.LookupMisses)
		}
	}
	if got := [2]int{tb.C.Yoda[0].ClientFlowCount(), tb.C.Yoda[1].ClientFlowCount()}; got != before || tb.C.Yoda[2].ClientFlowCount() != 0 {
		t.Fatalf("held flows per instance %v then %v and %d on the new one", before, got, tb.C.Yoda[2].ClientFlowCount())
	}

	fresh := hold(t, tb, k)
	tb.C.Net.RunFor(5 * time.Second)
	requireAnswered(t, fresh, 1)
	if tb.C.Yoda[2].ClientFlowCount() == 0 {
		t.Fatal("no new flow reached the new instance")
	}
	if got := tb.C.L4.AffinityCount(); got != 2*2*k {
		t.Fatalf("%d held flows hold %d affinity entries, want %d", 2*k, got, 2*2*k)
	}
}
