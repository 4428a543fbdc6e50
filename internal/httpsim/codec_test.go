package httpsim

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
)

// TestMarshalGolden pins Marshal's bytes to the reference serializer for
// header sets built in any order, with duplicate and odd-case names:
// the last value set under a name wins, names are canonicalised, lines
// come out sorted, Content-Length is computed and never copied. A
// close-mode head (MarshalClose, the server's reply to a closing request)
// is the head of the set after SetHeader("Connection", "close"), and
// leaves the set as it was.
func TestMarshalGolden(t *testing.T) {
	type kv struct{ name, value string }
	sets := [][]kv{
		nil,
		{{"Host", "svc"}},
		{{"x-trace", "1"}, {"HOST", "a"}, {"Accept", "*/*"}, {"host", "b"}},
		{{"Zeta", "z"}, {"alpha", "a"}, {"Mid-Dle", "m"}, {"ALPHA", "again"}, {"zeta", ""}},
		{{"content-length", "999"}, {"Cookie", "session=s1; lang=en"}, {"CONTENT-LENGTH", "7"}},
		{{"x--y", "dash"}, {"", "empty name"}, {"X-y", "1"}, {"x-Y", "2"}, {"é-à", "non-ascii"}},
		{{"connection", "keep-alive"}, {"Accept", "*/*"}, {"Cookie", "s=1"}, {"Connection", "Upgrade"}},
	}
	bodies := [][]byte{nil, []byte("payload"), bytes.Repeat([]byte("z"), 12345)}
	for i, set := range sets {
		// Every rotation of the set is a different insertion order with
		// the same last-wins outcome only when no name repeats, so the
		// reference map is rebuilt per rotation too.
		for rot := 0; rot < max(len(set), 1); rot++ {
			for _, body := range bodies {
				req := &Request{Method: "POST", Path: "/p", Version: "HTTP/1.1", Body: body}
				resp := NewResponse(200+rot, body)
				refHdr := map[string]string{}
				for k := range set {
					f := set[(k+rot)%len(set)]
					req.SetHeader(f.name, f.value)
					resp.SetHeader(f.name, f.value)
					refHdr[refCanonical(f.name)] = f.value
				}
				wantReq := (&refRequest{Method: "POST", Path: "/p", Version: "HTTP/1.1", Headers: refHdr, Body: body}).Marshal()
				if got := req.Marshal(); !bytes.Equal(got, wantReq) {
					t.Fatalf("set %d rot %d request:\n got %q\nwant %q", i, rot, got, wantReq)
				}
				wantResp := (&refResponse{Version: "HTTP/1.1", StatusCode: 200 + rot, Status: statusText(200 + rot), Headers: refHdr, Body: body}).Marshal()
				got := resp.Marshal()
				if !bytes.Equal(got, wantResp) {
					t.Fatalf("set %d rot %d response:\n got %q\nwant %q", i, rot, got, wantResp)
				}
				if len(got) != cap(got) {
					t.Fatalf("Marshal is not exact-size: len %d cap %d", len(got), cap(got))
				}
				if w := req.Marshal(); len(w) != cap(w) {
					t.Fatalf("request Marshal is not exact-size: len %d cap %d", len(w), cap(w))
				}
				if pre := []byte("prefix"); !bytes.Equal(append(resp.appendHead(pre, false), body...), append(pre, wantResp...)) {
					t.Fatalf("appendHead plus body is not Marshal's bytes")
				}
				// Close mode is SetHeader("Connection", "close") on a copy.
				plainReq, plainResp := wantReq, wantResp
				refHdr["Connection"] = "close"
				wantReq = (&refRequest{Method: "POST", Path: "/p", Version: "HTTP/1.1", Headers: refHdr, Body: body}).Marshal()
				if got := req.MarshalClose(); !bytes.Equal(got, wantReq) {
					t.Fatalf("set %d rot %d close-mode request:\n got %q\nwant %q", i, rot, got, wantReq)
				}
				wantResp = (&refResponse{Version: "HTTP/1.1", StatusCode: 200 + rot, Status: statusText(200 + rot), Headers: refHdr, Body: body}).Marshal()
				if got := append(resp.appendHead(nil, true), body...); !bytes.Equal(got, wantResp) {
					t.Fatalf("set %d rot %d close-mode response:\n got %q\nwant %q", i, rot, got, wantResp)
				}
				if !bytes.Equal(req.Marshal(), plainReq) || !bytes.Equal(resp.Marshal(), plainResp) {
					t.Fatalf("set %d rot %d: close mode changed the message's own header set", i, rot)
				}
			}
		}
	}
}

func TestCanonicalMatchesReference(t *testing.T) {
	for _, name := range []string{"", "host", "Host", "HOST", "x--y", "X-Forwarded-For", "x-forwarded-FOR", "é-à", "a", "-a-", "Content-Length"} {
		if got, want := canonical(name), refCanonical(name); got != want {
			t.Errorf("canonical(%q) = %q, reference %q", name, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = canonical("X-Forwarded-For") }); n != 0 {
		t.Errorf("canonical of a canonical name allocated %v times", n)
	}
}

func TestFrame(t *testing.T) {
	resp := []byte("HTTP/1.1 200 OK\r\ncontent-length: 1\r\nContent-Length: 5\r\n\r\nhello")
	cases := []struct {
		buf        []byte
		head, body int
		err        error
	}{
		{resp, len(resp) - 5, 5, nil},
		{resp[:10], 0, 0, nil},                      // header incomplete
		{resp[:len(resp)-1], len(resp) - 5, 5, nil}, // body incomplete: the caller compares lengths
		{[]byte("HTTP/1.1 204 No Content\r\n\r\n"), 27, 0, nil},
		{[]byte("Content-Length: 9\r\n\r\n"), 21, 0, nil}, // the start line is never a header
		{[]byte("GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n"), 37, 0, ErrMalformed},
		{[]byte("GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"), 38, 0, ErrMalformed},
		{bytes.Repeat([]byte("A"), maxHeaderBytes+1), 0, 0, ErrTooLarge},
	}
	for i, c := range cases {
		h, b, err := Frame(c.buf)
		if h != c.head || b != c.body || err != c.err {
			t.Errorf("case %d: Frame = %d, %d, %v; want %d, %d, %v", i, h, b, err, c.head, c.body, c.err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Frame(resp) }); n != 0 {
		t.Errorf("Frame allocated %v times", n)
	}
}

// TestFeedDoesNotAliasInput: TCP hands OnData a slice of the sender's
// send buffer, which is rewound and overwritten once acknowledged, so a
// returned message must never point into what was fed.
func TestFeedDoesNotAliasInput(t *testing.T) {
	req := NewRequest("/upload", "svc")
	req.Method, req.Body = "POST", bytes.Repeat([]byte("0123456789"), 500)
	req.SetHeader("Cookie", "session=s1")
	resp := NewResponse(200, bytes.Repeat([]byte("abcdefgh"), 700))
	resp.SetHeader("X-Backend", "srv-1")
	for _, chunk := range []int{1, 7, 1460, 1 << 20} {
		var rp RequestParser
		var sp ResponseParser
		var reqs []*Request
		var resps []*Response
		feed := func(wire []byte, f func([]byte)) {
			for c := newChunker(wire, chunk); len(c.data) > 0; {
				piece := append([]byte(nil), c.next()...)
				f(piece)
				for i := range piece {
					piece[i] = '!'
				}
			}
		}
		feed(req.Marshal(), func(p []byte) {
			out, err := rp.Feed(p)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, out...)
		})
		feed(resp.Marshal(), func(p []byte) {
			out, err := sp.Feed(p)
			if err != nil {
				t.Fatal(err)
			}
			resps = append(resps, out...)
		})
		if len(reqs) != 1 || len(resps) != 1 {
			t.Fatalf("chunk %d: parsed %d requests, %d responses", chunk, len(reqs), len(resps))
		}
		if got := reqs[0].Marshal(); !bytes.Equal(got, req.Marshal()) {
			t.Fatalf("chunk %d: request changed after its input was overwritten: %q", chunk, got[:80])
		}
		if reqs[0].Cookie("session") != "s1" {
			t.Fatalf("chunk %d: cookie = %q", chunk, reqs[0].Cookie("session"))
		}
		if got := resps[0].Marshal(); !bytes.Equal(got, resp.Marshal()) {
			t.Fatalf("chunk %d: response changed after its input was overwritten: %q", chunk, got[:80])
		}
	}
}

// TestParserHoldsNothingBetweenMessages: an idle keep-alive connection
// must not pay for a parse buffer, nor for the last message its parser
// returned (the slice Feed returns it in lives in the message).
func TestParserHoldsNothingBetweenMessages(t *testing.T) {
	wire := NewResponse(200, bytes.Repeat([]byte("x"), 2048)).Marshal()
	var p ResponseParser
	for _, chunk := range []int{1, 1460} {
		for c := newChunker(wire, chunk); len(c.data) > 0; {
			if _, err := p.Feed(c.next()); err != nil {
				t.Fatal(err)
			}
		}
		if p.p.head != nil || p.p.body != nil || p.p.cur != nil || p.Buffered() != 0 {
			t.Fatalf("chunk %d: parser still holds %+v", chunk, p.p)
		}
	}
	freed := make(chan struct{})
	func() {
		out, err := p.Feed(wire)
		if err != nil || len(out) != 1 {
			t.Fatalf("parse: %v %v", out, err)
		}
		runtime.SetFinalizer(&out[0].Body[0], func(*byte) { close(freed) })
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(&p)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the parser still references the last message it returned")
}

func feedAll(t testing.TB, p *ResponseParser, wire []byte, chunk int) {
	n := 0
	for c := newChunker(wire, chunk); len(c.data) > 0; {
		out, err := p.Feed(c.next())
		if err != nil {
			t.Fatal(err)
		}
		n += len(out)
	}
	if n != 1 {
		t.Fatalf("parsed %d responses", n)
	}
}

// allocBytesPerRun reports the mean bytes allocated by one call of f.
func allocBytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// The parse budgets. Response: message, head copy, header set and body
// (Feed returns the message in an array of its own), plus the scratch a
// head that arrives in pieces needs. A request head parsed into a reused
// Request: the head copy alone.
func TestParseAllocBudgets(t *testing.T) {
	small := NewResponse(200, bytes.Repeat([]byte("s"), 2<<10)).Marshal()
	var p ResponseParser
	for _, chunk := range []int{1, 7, 100, 1460, len(small)} {
		budget := 5.0
		if chunk >= 100 {
			budget = 4 // the head arrives whole
		}
		if n := testing.AllocsPerRun(50, func() { feedAll(t, &p, small, chunk) }); n > budget {
			t.Errorf("2 KiB response in %d-byte chunks: %v allocations, budget %v", chunk, n, budget)
		}
	}

	const bulk = 512 << 10
	big := NewResponse(200, bytes.Repeat([]byte("b"), bulk)).Marshal()
	if n := testing.AllocsPerRun(10, func() { feedAll(t, &p, big, 1460) }); n > 4 {
		t.Errorf("512 KiB response in MSS chunks: %v allocations, budget 4", n)
	}
	if b := allocBytesPerRun(10, func() { feedAll(t, &p, big, 1460) }); b > 1.05*bulk {
		t.Errorf("512 KiB response in MSS chunks: %.0f bytes allocated, budget %.0f", b, 1.05*bulk)
	}
	if b := allocBytesPerRun(10, func() { _ = NewResponse(200, big[len(big)-bulk:]).Marshal() }); b > 1.05*bulk {
		t.Errorf("Marshal of a 512 KiB response: %.0f bytes allocated, budget %.0f", b, 1.05*bulk)
	}

	wire := NewRequest("/obj", "svc").MarshalClose()
	var req Request
	if n := testing.AllocsPerRun(100, func() {
		if complete, err := ParseRequestHeader(&req, wire); err != nil || !complete {
			t.Fatal("bench GET did not parse")
		}
	}); n > 1 {
		t.Errorf("ParseRequestHeader of the bench GET: %v allocations, budget 1", n)
	}
	var rp RequestParser
	if n := testing.AllocsPerRun(100, func() {
		if reqs, err := rp.Feed(wire); err != nil || len(reqs) != 1 {
			t.Fatal("bench GET did not parse")
		}
	}); n > 3 {
		t.Errorf("RequestParser.Feed of the bench GET: %v allocations, budget 3", n)
	}
}

// TestLargePostThroughServer: the 64 KiB limit is on the header block.
// A request body larger than that, arriving in MSS-sized segments, used
// to be refused with ErrTooLarge (answered 400).
func TestLargePostThroughServer(t *testing.T) {
	n := netsim.New(8)
	n.PoisonReleasedBufs()
	ch := netsim.NewHost(n, netsim.IPv4(100, 0, 0, 1))
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
	body := bytes.Repeat([]byte("0123456789abcdef"), 128<<10/16)
	srv := NewServer(sh, 80, func(req *Request) *Response {
		if !bytes.Equal(req.Body, body) {
			return NewResponse(500, []byte("body corrupted"))
		}
		return NewResponse(200, []byte(strconv.Itoa(len(req.Body))))
	}, DefaultServerConfig())
	req := NewRequest("/upload", "svc")
	req.Method, req.Body = "POST", body
	var res *FetchResult
	NewClient(ch, DefaultClientConfig()).Fetch(netsim.HostPort{IP: sh.IP(), Port: 80}, req, func(r *FetchResult) { res = r })
	n.RunUntilIdle(1000000)
	if res == nil || res.Err != nil {
		t.Fatalf("fetch: %+v", res)
	}
	if res.Resp.StatusCode != 200 || string(res.Resp.Body) != fmt.Sprint(len(body)) {
		t.Fatalf("status %d body %q", res.Resp.StatusCode, res.Resp.Body)
	}
	if srv.Requests != 1 {
		t.Fatalf("server requests = %d", srv.Requests)
	}
	// And straight at the parser, one MSS at a time.
	var p RequestParser
	got := 0
	for c := newChunker(req.Marshal(), 1460); len(c.data) > 0; {
		out, err := p.Feed(c.next())
		if err != nil {
			t.Fatalf("Feed: %v", err)
		}
		got += len(out)
	}
	if got != 1 {
		t.Fatalf("parsed %d requests", got)
	}
}

// TestServerKeepsNothingOfClosedConns: a backend that has served and
// closed many connections must not hold their send buffers (it used to
// keep every accepted conn, each with its response still buffered) — nor,
// now that a body is transmitted where it lies, the bodies: the handler
// makes a fresh one per request, and a
// closed connection that still referenced its own would show here.
func TestServerKeepsNothingOfClosedConns(t *testing.T) {
	const objBytes, fetches = 256 << 10, 40
	w := newWorldServing(9, func(*Request) *Response {
		return NewResponse(200, bytes.Repeat([]byte("o"), objBytes))
	})
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	done := 0
	var next func()
	next = func() {
		w.client.Get(w.srvHP, "/obj", func(r *FetchResult) {
			if r.Err != nil || len(r.Resp.Body) != objBytes {
				t.Errorf("fetch %d: %v", done, r.Err)
			}
			if done++; done < fetches {
				next()
			}
		})
	}
	next()
	w.net.RunUntilIdle(10000000)
	if done != fetches || w.server.ActiveConns != 0 {
		t.Fatalf("done %d, active %d", done, w.server.ActiveConns)
	}
	if grown := int64(heap()) - int64(before); grown > fetches*objBytes/4 {
		t.Fatalf("heap grew %d bytes over %d closed connections of %d bytes each", grown, fetches, objBytes)
	}
	runtime.KeepAlive(w)
}

// TestServerSendsBodyInPlace: serving a 512 KiB object on a connection of
// its own, as bulk-paper does, costs the server side a connection, a
// request, a response head and a timer — not a copy of the object. The
// client is a raw TCP sink that keeps nothing, so what is allocated per
// response is the two endpoints', the server's and the network's.
func TestServerSendsBodyInPlace(t *testing.T) {
	const objBytes, fetches = 512 << 10, 16
	obj := bytes.Repeat([]byte("0123456789abcdef"), objBytes/16)
	w := newWorld(10, map[string][]byte{"/obj": obj})
	r := NewRequest("/obj", "svc")
	r.SetHeader("Connection", "close")
	req, got := r.Marshal(), 0
	sink := tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(req) },
		OnData:        func(c *tcp.Conn, d []byte) { got += len(d) },
		OnPeerClose:   func(c *tcp.Conn) { c.Close() },
	}
	fetch := func() {
		tcp.Dial(w.client.host, w.srvHP, sink, tcp.DefaultConfig())
		w.net.RunUntilIdle(1 << 20)
	}
	fetch() // warms the pools
	perResp := got
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < fetches; i++ {
		fetch()
	}
	runtime.ReadMemStats(&after)
	if got != (1+fetches)*perResp || perResp <= objBytes {
		t.Fatalf("read %d bytes over %d responses of %d", got, 1+fetches, perResp)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / fetches
	t.Logf("%d bytes allocated per response", per)
	if per > 4<<10 {
		t.Fatalf("serving a %d-byte object allocates %d bytes per response, want under 4 KiB: the body is being copied", objBytes, per)
	}
	if !bytes.Equal(obj, bytes.Repeat([]byte("0123456789abcdef"), objBytes/16)) {
		t.Fatal("the served object was modified")
	}
}
