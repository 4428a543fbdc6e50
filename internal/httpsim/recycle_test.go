package httpsim

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
	"repro/internal/tcp"
)

// The client and server recycle what lives one connection: a fetch goes
// back to its client as done runs, a serverConn and both ends' conns once
// nothing will read them again. These tests pin the two moments that
// rule is easy to get wrong.

// TestServerConnOutlivesFailWhileResponding: a request's conn fails (the
// client resets it) while the response waits out processingDelay. The
// serverConn and its conn are released only once that respond has run;
// with poisoning on, a respond reaching a released conn panics.
func TestServerConnOutlivesFailWhileResponding(t *testing.T) {
	w := newWorld(31, map[string][]byte{"/obj": []byte("late")})
	h := netsim.NewHost(w.net, netsim.IPv4(100, 0, 0, 9))
	tcp.Dial(h, w.srvHP, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) {
			c.Write(NewRequest("/obj", "svc").Marshal())
			w.net.Schedule(processingDelay/2, c.Abort)
		},
	}, tcp.DefaultConfig())
	w.net.RunUntilIdle(1 << 16)
	if w.server.Requests != 1 || w.server.ActiveConns != 0 {
		t.Fatalf("server: %d requests, %d active conns; want 1 and 0", w.server.Requests, w.server.ActiveConns)
	}
	ok := false
	w.client.Get(w.srvHP, "/obj", func(r *FetchResult) { ok = r.Err == nil && string(r.Resp.Body) == "late" })
	w.net.RunUntilIdle(1 << 16)
	if !ok {
		t.Fatal("a fetch after the reset failed")
	}
}

// TestFetchAgainFromDone: each done starts the next Fetch from inside
// itself, as a closed-loop client does, and takes the fetch object that
// has just finished. The server resets every connection right behind its
// response, so the old conn fails after that object already serves the
// next fetch: its failure must not reach that fetch.
func TestFetchAgainFromDone(t *testing.T) {
	const fetches = 6
	wire := NewResponse(200, bytes.Repeat([]byte("r"), 2<<10)).Marshal()
	n := netsim.New(32) // not poisoned: a quarantined fetch is never reused
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
	tcp.Listen(sh, 80, func(*tcp.Conn) tcp.Callbacks {
		return tcp.Callbacks{OnData: func(c *tcp.Conn, _ []byte) { c.Write(wire); c.Abort() }}
	}, tcp.DefaultConfig())
	cl := NewClient(netsim.NewHost(n, netsim.IPv4(100, 0, 0, 1)), DefaultClientConfig())
	addr := netsim.HostPort{IP: sh.IP(), Port: 80}
	var results []*FetchResult
	var fetchObjs []*fetch
	var done func(*FetchResult)
	done = func(r *FetchResult) {
		results = append(results, r)
		fetchObjs = append(fetchObjs, r.Conn.User().(*fetch))
		if r.Err == nil && len(r.Resp.Body) != 2<<10 {
			t.Errorf("fetch %d: %d body bytes", len(results), len(r.Resp.Body))
		}
		if len(results) < fetches {
			cl.Get(addr, "/obj", done)
		}
	}
	cl.Get(addr, "/obj", done)
	n.RunUntilIdle(1 << 20)
	if len(results) != fetches {
		t.Fatalf("%d fetches finished, want %d", len(results), fetches)
	}
	for i, r := range results {
		if r.Err != nil || r.Attempts != 1 {
			t.Errorf("fetch %d: err %v after %d attempts; a reset behind an earlier response reached it", i, r.Err, r.Attempts)
		}
		if i > 0 && (r == results[i-1] || fetchObjs[i] != fetchObjs[0]) {
			t.Errorf("fetch %d: result shared with the last one, or a fresh fetch object: nothing was reused", i)
		}
	}
}
