package httpsim

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
)

func TestRequestMarshalParseRoundTrip(t *testing.T) {
	req := NewRequest("/index.html", "mysite.com")
	req.SetHeader("Cookie", "session=abc123; lang=en-GB")
	req.Body = []byte("payload")
	wire := req.Marshal()

	p := &RequestParser{}
	got, err := p.Feed(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d requests", len(got))
	}
	r := got[0]
	if r.Method != "GET" || r.Path != "/index.html" || r.Version != "HTTP/1.1" {
		t.Fatalf("request line: %+v", r)
	}
	if r.Header("host") != "mysite.com" {
		t.Errorf("Host = %q", r.Header("host"))
	}
	if r.Cookie("session") != "abc123" || r.Cookie("lang") != "en-GB" {
		t.Errorf("cookies: %q %q", r.Cookie("session"), r.Cookie("lang"))
	}
	if r.Cookie("missing") != "" {
		t.Errorf("missing cookie should be empty")
	}
	if string(r.Body) != "payload" {
		t.Errorf("body = %q", r.Body)
	}
}

func TestRequestParserIncremental(t *testing.T) {
	req := NewRequest("/a", "h")
	wire := req.Marshal()
	p := &RequestParser{}
	for i := 0; i < len(wire)-1; i++ {
		got, err := p.Feed(wire[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("request completed early at byte %d", i)
		}
	}
	got, err := p.Feed(wire[len(wire)-1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("expected completion on last byte, got %d", len(got))
	}
}

func TestRequestParserPipelined(t *testing.T) {
	var wire bytes.Buffer
	wire.Write(NewRequest("/1", "h").Marshal())
	wire.Write(NewRequest("/2", "h").Marshal())
	wire.Write(NewRequest("/3", "h").Marshal())
	p := &RequestParser{}
	got, err := p.Feed(wire.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Path != "/1" || got[2].Path != "/3" {
		t.Fatalf("pipelined parse: %v", got)
	}
	if p.Buffered() != 0 {
		t.Fatalf("leftover bytes: %d", p.Buffered())
	}
}

func TestParseRequestHeaderPartial(t *testing.T) {
	var r Request
	complete, err := ParseRequestHeader(&r, []byte("GET /x HTTP/1.1\r\nHost: a\r\n"))
	if err != nil || complete {
		t.Fatalf("incomplete header: complete=%v err=%v", complete, err)
	}
	complete, err = ParseRequestHeader(&r, []byte("GET /x HTTP/1.1\r\nHost: a\r\n\r\nBODYBYTES"))
	if err != nil || !complete {
		t.Fatalf("complete header: complete=%v err=%v", complete, err)
	}
	if r.Path != "/x" || r.Header("Host") != "a" || r.Body != nil {
		t.Fatalf("parsed: %+v", r)
	}
}

func TestParseMalformed(t *testing.T) {
	cases := []string{
		"NOT-HTTP\r\n\r\n",
		"GET /x\r\n\r\n",
		"GET /x HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n",
	}
	for _, c := range cases {
		p := &RequestParser{}
		if _, err := p.Feed([]byte(c)); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
	// Bad content length.
	p := &RequestParser{}
	if _, err := p.Feed([]byte("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n")); err == nil {
		t.Error("no error for bad content-length")
	}
}

func TestHeaderTooLarge(t *testing.T) {
	p := &RequestParser{}
	junk := bytes.Repeat([]byte("A"), maxHeaderBytes+10)
	if _, err := p.Feed(junk); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := NewResponse(200, []byte("hello"))
	resp.SetHeader("X-Backend", "srv-1")
	wire := resp.Marshal()
	p := &ResponseParser{}
	got, err := p.Feed(wire)
	if err != nil || len(got) != 1 {
		t.Fatalf("parse: %v %v", got, err)
	}
	r := got[0]
	if r.StatusCode != 200 || r.Status != "OK" {
		t.Fatalf("status: %d %q", r.StatusCode, r.Status)
	}
	if string(r.Body) != "hello" {
		t.Fatalf("body: %q", r.Body)
	}
	if r.Header("x-backend") != "srv-1" {
		t.Fatalf("header: %q", r.Header("x-backend"))
	}
}

func TestResponseParserSplitBody(t *testing.T) {
	resp := NewResponse(200, bytes.Repeat([]byte("z"), 10000))
	wire := resp.Marshal()
	p := &ResponseParser{}
	half := len(wire) / 2
	got, err := p.Feed(wire[:half])
	if err != nil || len(got) != 0 {
		t.Fatalf("half feed: %v %v", got, err)
	}
	got, err = p.Feed(wire[half:])
	if err != nil || len(got) != 1 {
		t.Fatalf("full feed: %v %v", got, err)
	}
	if len(got[0].Body) != 10000 {
		t.Fatalf("body len %d", len(got[0].Body))
	}
}

func TestKeepAliveSemantics(t *testing.T) {
	r := NewRequest("/", "h")
	if !r.KeepAlive() {
		t.Error("HTTP/1.1 default should keep alive")
	}
	r.SetHeader("Connection", "close")
	if r.KeepAlive() {
		t.Error("Connection: close should not keep alive")
	}
	r10 := &Request{Method: "GET", Path: "/", Version: "HTTP/1.0"}
	if r10.KeepAlive() {
		t.Error("HTTP/1.0 default should not keep alive")
	}
	r10.SetHeader("Connection", "keep-alive")
	if !r10.KeepAlive() {
		t.Error("HTTP/1.0 with keep-alive header should keep alive")
	}
}

func TestCanonicalHeaderNames(t *testing.T) {
	f := func(s string) bool {
		c := canonical(s)
		// Canonicalization must be idempotent.
		return canonical(c) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if canonical("content-length") != "Content-Length" {
		t.Errorf("canonical = %q", canonical("content-length"))
	}
	if canonical("x--y") != "X--Y" {
		t.Errorf("canonical double dash = %q", canonical("x--y"))
	}
}

func TestMarshalPreservesArbitraryBody(t *testing.T) {
	f := func(body []byte) bool {
		resp := NewResponse(200, body)
		p := &ResponseParser{}
		got, err := p.Feed(resp.Marshal())
		if err != nil || len(got) != 1 {
			return false
		}
		return bytes.Equal(got[0].Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- end-to-end over simulated TCP ---

type world struct {
	net    *netsim.Network
	client *Client
	server *Server
	srvHP  netsim.HostPort
}

func newWorld(seed int64, objects map[string][]byte) *world {
	return newWorldServing(seed, MapHandler(objects))
}

func newWorldServing(seed int64, h Handler) *world {
	n := netsim.New(seed)
	n.PoisonReleasedBufs() // nothing may read a payload after its sender's full ACK
	ch := netsim.NewHost(n, netsim.IPv4(100, 0, 0, 1))
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
	srv := NewServer(sh, 80, h, DefaultServerConfig())
	return &world{
		net:    n,
		client: NewClient(ch, DefaultClientConfig()),
		server: srv,
		srvHP:  netsim.HostPort{IP: sh.IP(), Port: 80},
	}
}

func TestClientServerFetch(t *testing.T) {
	w := newWorld(1, map[string][]byte{"/obj": bytes.Repeat([]byte("d"), 10240)})
	var res *FetchResult
	w.client.Get(w.srvHP, "/obj", func(r *FetchResult) { res = r })
	w.net.RunUntilIdle(100000)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("fetch error: %v", res.Err)
	}
	if len(res.Resp.Body) != 10240 {
		t.Fatalf("body len = %d", len(res.Resp.Body))
	}
	// Expected latency: handshake 1 RTT (60ms) + request/response ≥1 RTT +
	// 5ms processing. 10KB at IW10 fits one window, so ~125ms total.
	if res.Elapsed() < 120*time.Millisecond || res.Elapsed() > 200*time.Millisecond {
		t.Fatalf("elapsed = %v, want ~125ms", res.Elapsed())
	}
	if w.server.Requests != 1 {
		t.Fatalf("server requests = %d", w.server.Requests)
	}
}

func TestClientFetch404(t *testing.T) {
	w := newWorld(2, map[string][]byte{})
	var res *FetchResult
	w.client.Get(w.srvHP, "/missing", func(r *FetchResult) { res = r })
	w.net.RunUntilIdle(100000)
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if res.Resp.StatusCode != 404 {
		t.Fatalf("status = %d", res.Resp.StatusCode)
	}
	if !strings.Contains(string(res.Resp.Body), "/missing") {
		t.Fatalf("404 body should name the object: %q", res.Resp.Body)
	}
}

func TestClientTimeoutOnDeadServer(t *testing.T) {
	w := newWorld(3, map[string][]byte{"/x": []byte("y")})
	w.server.Host().Detach()
	cfg := DefaultClientConfig()
	cfg.Timeout = 5 * time.Second
	cl := NewClient(w.client.host, cfg)
	var res *FetchResult
	cl.Get(w.srvHP, "/x", func(r *FetchResult) { res = r })
	w.net.RunFor(10 * time.Second)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != ErrHTTPTimeout || !res.TimedOut {
		t.Fatalf("err = %v timedout=%v", res.Err, res.TimedOut)
	}
	if res.Elapsed() != 5*time.Second {
		t.Fatalf("elapsed = %v, want the 5s timeout", res.Elapsed())
	}
}

func TestClientRetrySucceedsAfterServerRecovers(t *testing.T) {
	w := newWorld(4, map[string][]byte{"/x": []byte("y")})
	w.server.Host().Detach()
	// Reattach the server after 6s; first attempt times out at 5s, the
	// retry succeeds.
	w.net.Schedule(6*time.Second, func() { w.server.Host().Reattach() })
	cfg := DefaultClientConfig()
	cfg.Timeout = 5 * time.Second
	cfg.Retries = 1
	cl := NewClient(w.client.host, cfg)
	var res *FetchResult
	cl.Get(w.srvHP, "/x", func(r *FetchResult) { res = r })
	w.net.RunFor(30 * time.Second)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("retry should succeed: %v", res.Err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	if !res.TimedOut {
		t.Fatal("first attempt should be recorded as a timeout")
	}
}

func TestKeepAliveServesMultipleRequests(t *testing.T) {
	n := netsim.New(5)
	n.PoisonReleasedBufs()
	ch := netsim.NewHost(n, netsim.IPv4(100, 0, 0, 1))
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
	srv := NewServer(sh, 80, MapHandler(map[string][]byte{
		"/1": []byte("one"), "/2": []byte("two"),
	}), DefaultServerConfig())
	_ = srv
	// Drive keep-alive at the TCP level directly.
	parser := &ResponseParser{}
	var bodies []string
	tcp.Dial(ch, netsim.HostPort{IP: sh.IP(), Port: 80}, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) {
			c.Write(NewRequest("/1", "h").Marshal())
			c.Write(NewRequest("/2", "h").Marshal())
		},
		OnData: func(c *tcp.Conn, d []byte) {
			resps, err := parser.Feed(d)
			if err != nil {
				t.Errorf("parse: %v", err)
			}
			for _, r := range resps {
				bodies = append(bodies, string(r.Body))
			}
			if len(bodies) == 2 {
				c.Close()
			}
		},
	}, tcp.DefaultConfig())
	n.RunUntilIdle(100000)
	if len(bodies) != 2 || bodies[0] != "one" || bodies[1] != "two" {
		t.Fatalf("bodies = %v", bodies)
	}
	if srv.Requests != 2 {
		t.Fatalf("server requests = %d", srv.Requests)
	}
}

func TestServerConnectionCountTracksCloses(t *testing.T) {
	w := newWorld(7, map[string][]byte{"/x": []byte("y")})
	done := 0
	for i := 0; i < 5; i++ {
		w.client.Get(w.srvHP, "/x", func(r *FetchResult) { done++ })
	}
	w.net.RunUntilIdle(1000000)
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	if w.server.ActiveConns != 0 {
		t.Fatalf("ActiveConns = %d after all closes", w.server.ActiveConns)
	}
}

// TestFetchAllocBudget is the HTTP layers' line of the allocation ledger
// (DESIGN.md, "What a request allocates"): one close-mode fetch of a
// 2 KiB object, client and server on a bare two-host network, costs at
// most 15 allocations once the network's pools are warm. The client's 8:
// the fetch object, its timeout closure, the connection and its
// retransmit closure, and the response (message, head copy, header set,
// body). The server's 7: the serverConn, its respond closure, the
// connection and its retransmit closure, and the request (message, head
// copy, header set).
func TestFetchAllocBudget(t *testing.T) {
	w := newWorld(11, map[string][]byte{"/obj": bytes.Repeat([]byte("o"), 2<<10)})
	req := NewRequest("/obj", "svc")
	fetched := 0
	done := func(r *FetchResult) {
		if r.Err != nil || r.Resp.StatusCode != 200 || len(r.Resp.Body) != 2<<10 {
			t.Fatalf("fetch: %+v", r)
		}
		fetched++
	}
	fetch := func() {
		w.client.Fetch(w.srvHP, req, done)
		w.net.RunUntilIdle(1 << 20)
	}
	for i := 0; i < 64; i++ {
		fetch() // warm the network's packet, event and buffer pools
	}
	n := testing.AllocsPerRun(100, fetch)
	t.Logf("%v allocations per fetch", n)
	if fetched != 64+101 {
		t.Fatalf("%d fetches completed, want %d", fetched, 64+101)
	}
	if n > 15 {
		t.Errorf("one fetch allocates %v objects, budget 15", n)
	}
	if len(req.header) != 1 {
		t.Errorf("Fetch changed the caller's request: %+v", req.header)
	}
}

// TestCloseModeWire pins the bytes a close-mode exchange puts on the
// wire: the client's request and the server's response are exactly what
// SetHeader("Connection", "close") on a copy of each, then Marshal,
// makes — with header lines that sort both before and after Connection.
func TestCloseModeWire(t *testing.T) {
	newReq := func() *Request {
		r := NewRequest("/obj", "svc")
		r.SetHeader("Accept", "*/*")
		r.SetHeader("X-Trace", "7")
		return r
	}
	newResp := func() *Response {
		r := NewResponse(200, bytes.Repeat([]byte("b"), 3000))
		r.SetHeader("Cache-Control", "no-store")
		r.SetHeader("X-Backend", "srv-1")
		return r
	}
	shared := newResp()
	w := newWorldServing(12, func(*Request) *Response { return shared })
	var toServer, toClient []byte
	w.net.SetTracer(func(ev netsim.TraceEvent) {
		if p := ev.Packet; !ev.Dropped && p.Dst == w.srvHP {
			toServer = append(toServer, p.Payload...)
		} else if !ev.Dropped {
			toClient = append(toClient, p.Payload...)
		}
	})
	var res *FetchResult
	w.client.Fetch(w.srvHP, newReq(), func(r *FetchResult) { res = r })
	w.net.RunUntilIdle(1 << 20)
	if res == nil || res.Err != nil {
		t.Fatalf("fetch: %+v", res)
	}
	wantReq, wantResp := newReq(), newResp()
	wantReq.SetHeader("Connection", "close")
	wantResp.SetHeader("Connection", "close")
	if want := wantReq.Marshal(); !bytes.Equal(toServer, want) {
		t.Errorf("the client sent\n%q\nwant\n%q", toServer, want)
	}
	if want := wantResp.Marshal(); !bytes.Equal(toClient, want) {
		t.Errorf("the server sent\n%.200q\nwant\n%.200q", toClient, want)
	}
}

// TestSharedResponseNeverMutated: a handler may return one *Response to
// every request. A request that closes its connection must not leave
// Connection: close in it, to be sent on every keep-alive reply after.
func TestSharedResponseNeverMutated(t *testing.T) {
	shared := NewResponse(200, []byte("shared"))
	shared.SetHeader("X-Backend", "srv-1")
	want := shared.Marshal()
	w := newWorldServing(13, func(*Request) *Response { return shared })
	var closed *FetchResult
	w.client.Get(w.srvHP, "/a", func(r *FetchResult) { closed = r })
	w.net.RunUntilIdle(1 << 20)
	if closed == nil || closed.Err != nil || closed.Resp.Header("Connection") != "close" {
		t.Fatalf("close-mode fetch: %+v", closed)
	}
	var got []byte
	tcp.Dial(w.client.host, w.srvHP, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(NewRequest("/b", "h").Marshal()) },
		OnData:        func(_ *tcp.Conn, d []byte) { got = append(got, d...) },
	}, tcp.DefaultConfig())
	w.net.RunUntilIdle(1 << 20)
	if !bytes.Equal(got, want) {
		t.Errorf("the keep-alive reply is\n%q\nwant\n%q", got, want)
	}
	if now := shared.Marshal(); !bytes.Equal(now, want) {
		t.Errorf("the handler's response became\n%q", now)
	}
}
