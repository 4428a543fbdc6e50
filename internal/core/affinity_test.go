package core_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
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

// TestSegmentsToTheBackendRepinTheReturnPath: every segment an instance
// sends toward a backend re-claims its connection's return tuple at the
// muxes (l4lb.SendViaSNAT), not only the SYN. A staggered mapping flip
// evicts a draining instance's pairs, and the segments it still relays
// are what keep its backends' replies coming back to it. Here the return
// tuple's entry is dropped once the backend's data flows; the next client
// segment the owner receives, relayed to the backend, must claim it
// again for the owner, and the fetch ends with no adoption: no instance
// was withdrawn, so the monitor allows none (G3).
func TestSegmentsToTheBackendRepinTheReturnPath(t *testing.T) {
	tb := newTestbed(t, 6, 2)
	net, lb := tb.C.Net, tb.C.L4
	var res *httpsim.FetchResult
	tb.C.NewClient(httpsim.DefaultClientConfig()).Get(tb.Addr, "/100k", keep(&res))
	var st netsim.FourTuple // the backend's replies: server → VIP:snat
	var owner netsim.IP
	dropped, relayed, checked := false, false, false
	check := func() {
		if h, ok := lb.Holder(st); !ok || h != owner {
			t.Errorf("after the relay the return tuple is held by %v (held: %v), want the owner %v", h, ok, owner)
		}
		checked = true
	}
	core.CountNotes(t, net, func(ev netsim.TraceEvent) {
		p := ev.Packet
		switch {
		case p == nil || relayed:
		case st == (netsim.FourTuple{}) && p.Src.IP == tb.VIP && p.Src != tb.Addr: // the SYN to the backend
			st = netsim.FourTuple{Src: p.Dst, Dst: p.Src}
		case !dropped && p.Src == st.Src && len(p.Payload) > 0:
			owner, _ = lb.Holder(st)
			net.Schedule(0, func() { lb.Release(st, owner); dropped = true })
		case dropped && p.Dst == tb.Addr && p.Outer != nil && p.Outer.Dst == owner:
			// Once the owner has handled this client segment, and so
			// relayed it toward the backend.
			relayed = true
			net.Schedule(0, check)
		}
	})
	net.RunFor(30 * time.Second)
	if res == nil || res.Err != nil || !bytes.Equal(res.Resp.Body, e2eObjects["/100k"]) {
		t.Fatalf("fetch: %+v", res)
	}
	if !checked {
		t.Fatalf("dropped the return path: %v; a client segment reached its owner after it: %v", dropped, relayed)
	}
}
