package httpsim

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
)

// The client and server recycle what lives one connection: a fetch goes
// back to its client as done runs, a serverConn and both ends' conns once
// nothing will read them again. These tests pin the two moments that
// rule is easy to get wrong, and then the messages: a Handler's request
// and a Fetch's outcome are lent for the call.

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
// next fetch: its failure must not reach that fetch. Every outcome is
// lent in the client's one result.
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
		if r.Err != nil || r.Attempts != 1 {
			t.Errorf("fetch %d: err %v after %d attempts; a reset behind an earlier response reached it", len(results), r.Err, r.Attempts)
		} else if len(r.Resp.Body) != 2<<10 {
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
	for i := range results {
		if results[i] != results[0] || fetchObjs[i] != fetchObjs[0] {
			t.Errorf("fetch %d: a result or a fetch object of its own: nothing was lent or reused", i)
		}
	}
}

// TestWarmServerAllocatesTheHead: a warm server answers a request on a
// keep-alive connection with one allocation, the string copy of the
// request's head: the request, its header set and the response head are
// recycled, and the client end here allocates nothing.
func TestWarmServerAllocatesTheHead(t *testing.T) {
	body := bytes.Repeat([]byte("s"), 2<<10)
	w := newWorldOn(netsim.New(41), MapHandler(map[string][]byte{"/obj": body}))
	wire, want := NewRequest("/obj", "svc").Marshal(), len(NewResponse(200, body).Marshal())
	got := 0
	c := tcp.Dial(w.client.host, w.srvHP, tcp.Callbacks{OnData: func(_ *tcp.Conn, d []byte) { got += len(d) }}, tcp.DefaultConfig())
	ask := func() {
		got = 0
		c.Write(wire)
		w.net.RunFor(time.Second)
		if got != want {
			t.Fatalf("%d response bytes, want %d", got, want)
		}
	}
	for range 16 {
		ask() // warm the pools and the server's spare requests
	}
	if n := testing.AllocsPerRun(100, ask); n != 1 {
		t.Errorf("a warm keep-alive request costs the server %v allocations, want 1 (its head string)", n)
	}
}

// TestWarmFetchAllocatesTheHead: a warm client fetches a 2 KiB object with
// one allocation, the string copy of the response's head: the fetch, the
// result, the response, its header set and the body's array are lent and
// taken back. The server end here writes a prepared response and releases
// its conns, so it allocates nothing.
func TestWarmFetchAllocatesTheHead(t *testing.T) {
	wire := NewResponse(200, bytes.Repeat([]byte("f"), 2<<10)).Marshal()
	n := netsim.New(43) // not poisoned: a quarantined object is never reused
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
	serve := func(c *tcp.Conn, _ []byte) { c.Write(wire); c.Close() }
	tcp.Listen(sh, 80, func(*tcp.Conn) tcp.Callbacks {
		return tcp.Callbacks{OnData: serve, OnClose: (*tcp.Conn).Release}
	}, tcp.DefaultConfig())
	cl := NewClient(netsim.NewHost(n, netsim.IPv4(100, 0, 0, 1)), DefaultClientConfig())
	addr, req := netsim.HostPort{IP: sh.IP(), Port: 80}, NewRequest("/obj", "svc")
	ok := false
	done := func(r *FetchResult) { ok = r.Err == nil && r.Resp.StatusCode == 200 && len(r.Resp.Body) == 2<<10 }
	fetch := func() {
		ok = false
		cl.Fetch(addr, req, done)
		n.RunUntilIdle(1 << 20)
		if !ok {
			t.Fatal("fetch failed")
		}
	}
	for range 16 {
		fetch()
	}
	if got := testing.AllocsPerRun(100, fetch); got != 1 {
		t.Errorf("a warm fetch costs the client %v allocations, want 1 (its head string)", got)
	}
}

// TestPoisonedShellsAreNeverReused: under PoisonReleasedBufs a request or
// response given back is cleared but never parsed into again, so a late
// reader sees an empty message rather than the next one; without poison
// the same shells serve every exchange.
func TestPoisonedShellsAreNeverReused(t *testing.T) {
	for _, poison := range []bool{true, false} {
		n := netsim.New(44)
		if poison {
			n.PoisonReleasedBufs()
		}
		var reqs []*Request
		w := newWorldOn(n, func(req *Request) *Response {
			reqs = append(reqs, req)
			return NewResponse(200, []byte(req.Path))
		})
		var resps []*Response
		for range 3 {
			w.client.Get(w.srvHP, "/obj", func(r *FetchResult) { resps = append(resps, r.Resp) })
			n.RunUntilIdle(1 << 20)
		}
		if len(reqs) != 3 || len(resps) != 3 {
			t.Fatalf("poison %v: %d requests served, %d responses fetched; want 3 and 3", poison, len(reqs), len(resps))
		}
		for i := range 3 {
			if reqs[i].Path != "" || reqs[i].Header("Host") != "" || resps[i].StatusCode != 0 || resps[i].Header("Content-Length") != "" {
				t.Errorf("poison %v, exchange %d: a message given back was not cleared: %+v, %+v", poison, i, reqs[i], resps[i])
			}
			if fresh := reqs[i] != reqs[0] && resps[i] != resps[0]; i > 0 && fresh != poison {
				t.Errorf("poison %v, exchange %d: fresh request and response %v, want %v", poison, i, fresh, poison)
			}
		}
	}
}

// TestKeptResultIsRewritten documents the loan of a Fetch's outcome: a
// done that keeps its *FetchResult past return sees it cleared, and the
// client's next outcome lent in the same result, while a Clone taken
// inside done keeps what it copied.
func TestKeptResultIsRewritten(t *testing.T) {
	w := newWorld(45, map[string][]byte{"/obj": []byte("kept")})
	var kept, clone *FetchResult
	w.client.Get(w.srvHP, "/obj", func(r *FetchResult) { kept, clone = r, r.Clone() })
	w.net.RunUntilIdle(1 << 20)
	if kept == nil || *kept != (FetchResult{}) {
		t.Fatalf("after done the kept result reads %+v, want it cleared", kept)
	}
	first := clone.Started
	w.net.RunFor(time.Second)
	var second *FetchResult
	var started time.Duration
	w.client.Get(w.srvHP, "/missing", func(r *FetchResult) { second, started = r, r.Started })
	w.net.RunUntilIdle(1 << 20)
	if second != kept || started == first {
		t.Fatalf("the next outcome (started %v) was not lent in the kept result", started)
	}
	if clone.Err != nil || clone.Started != first || clone.Resp.StatusCode != 200 || string(clone.Resp.Body) != "kept" || clone.Resp.Header("Content-Length") != "4" {
		t.Fatalf("the clone changed: %+v", clone.Resp)
	}
}
