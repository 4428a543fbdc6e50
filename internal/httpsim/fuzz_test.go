package httpsim

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRequestParser feeds arbitrary bytes in arbitrary chunkings to the
// request parser: it must never panic, and whenever it accepts a
// well-formed request, re-marshalling and re-parsing must agree.
func FuzzRequestParser(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a\r\n\r\n"), 3)
	f.Add([]byte("POST /u HTTP/1.1\r\nContent-Length: 4\r\n\r\nBODY"), 1)
	f.Add([]byte("GET /x HTTP/1.0\r\n\r\nGET /y HTTP/1.0\r\n\r\n"), 5)
	f.Add([]byte("garbage\r\n\r\n"), 2)
	f.Add([]byte("GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"), 1)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		p := &RequestParser{}
		var whole []*Request
		failed := false
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			reqs, err := p.Feed(data[off:end])
			whole = append(whole, reqs...)
			if err != nil {
				failed = true
				break
			}
		}
		if failed {
			return
		}
		// Parsed requests must survive a marshal/parse round trip.
		for _, r := range whole {
			p2 := &RequestParser{}
			again, err := p2.Feed(r.Marshal())
			if err != nil || len(again) != 1 {
				t.Fatalf("re-parse of accepted request failed: %v (%d)", err, len(again))
			}
			if again[0].Method != r.Method || again[0].Path != r.Path || !bytes.Equal(again[0].Body, r.Body) {
				t.Fatalf("round trip changed request: %+v vs %+v", again[0], r)
			}
		}
	})
}

// FuzzResponseParser mirrors FuzzRequestParser for the response side.
func FuzzResponseParser(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"), 4)
	f.Add([]byte("HTTP/1.1 404 Not Found\r\n\r\n"), 1)
	f.Add([]byte("NOPE\r\n\r\n"), 2)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		p := &ResponseParser{}
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			if _, err := p.Feed(data[off:end]); err != nil {
				return
			}
		}
	})
}

// FuzzParseRequestHeader must never panic or claim completion on
// truncated headers, and a parse into a Request reused from every
// earlier input must equal a parse into a fresh one.
func FuzzParseRequestHeader(f *testing.F) {
	f.Add([]byte("GET /p HTTP/1.1\r\nHost: h\r\n\r\ntail"))
	f.Add([]byte("GET /p HTTP/1.1\r\nHost"))
	f.Add([]byte("GET /q HTTP/1.1\r\nCookie: session=s1\r\nX-A: 1\r\nX-B: 2\r\n\r\n"))
	var reused Request
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh Request
		complete, err := ParseRequestHeader(&fresh, data)
		if complete && !bytes.Contains(data, []byte("\r\n\r\n")) {
			t.Fatal("claimed completion without header terminator")
		}
		complete2, err2 := ParseRequestHeader(&reused, data)
		if complete2 != complete || err2 != err {
			t.Fatalf("reused scratch: (%v, %v), fresh: (%v, %v)", complete2, err2, complete, err)
		}
		if complete && err == nil {
			if got, want := reused.Marshal(), fresh.Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("reused scratch parsed %q, fresh %q", got, want)
			}
			if got, want := reused.Cookie("session"), fresh.Cookie("session"); got != want {
				t.Fatalf("reused scratch cookie %q, fresh %q", got, want)
			}
		}
	})
}

// chunker cuts a stream into Feed-sized pieces: a fixed size when
// chunk > 0, otherwise sizes that vary from 1 to 2*MSS by a small LCG
// seeded from the stream, so one input exercises many boundaries.
type chunker struct {
	data  []byte
	chunk int
	lcg   uint32
}

func newChunker(data []byte, chunk int) *chunker {
	// The reference re-scans its whole buffer on every Feed; keep a long
	// stream to a few thousand pieces so the fuzzer is not spent there.
	if chunk > 0 {
		chunk = max(chunk, len(data)>>12)
	}
	return &chunker{data: data, chunk: chunk, lcg: uint32(len(data))*2654435761 + 1}
}

func (c *chunker) next() []byte {
	n := c.chunk
	if n <= 0 {
		c.lcg = c.lcg*1664525 + 1013904223
		n = 1 + int(c.lcg>>16)%(2*1460)
	}
	n = min(n, len(c.data))
	piece := c.data[:n]
	c.data = c.data[n:]
	return piece
}

func sameRequest(t *testing.T, got *Request, want *refRequest) {
	t.Helper()
	if got.Method != want.Method || got.Path != want.Path || got.Version != want.Version {
		t.Fatalf("request line: got %q %q %q, want %q %q %q", got.Method, got.Path, got.Version, want.Method, want.Path, want.Version)
	}
	if !bytes.Equal(got.Body, want.Body) || (got.Body == nil) != (want.Body == nil) {
		t.Fatalf("body: got %d bytes, want %d", len(got.Body), len(want.Body))
	}
	sameHeaders(t, got.header, want.Headers)
	if g, w := got.Marshal(), want.Marshal(); !bytes.Equal(g, w) {
		t.Fatalf("re-marshal differs:\n got %q\nwant %q", g, w)
	}
}

func sameResponse(t *testing.T, got *Response, want *refResponse) {
	t.Helper()
	if got.Version != want.Version || got.StatusCode != want.StatusCode || got.Status != want.Status {
		t.Fatalf("status line: got %q %d %q, want %q %d %q", got.Version, got.StatusCode, got.Status, want.Version, want.StatusCode, want.Status)
	}
	if !bytes.Equal(got.Body, want.Body) || (got.Body == nil) != (want.Body == nil) {
		t.Fatalf("body: got %d bytes, want %d", len(got.Body), len(want.Body))
	}
	sameHeaders(t, got.header, want.Headers)
	if g, w := got.Marshal(), want.Marshal(); !bytes.Equal(g, w) {
		t.Fatalf("re-marshal differs:\n got %q\nwant %q", g, w)
	}
}

func sameHeaders(t *testing.T, got header, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("headers: got %v, want %v", got, want)
	}
	for i, f := range got {
		if v, ok := want[f.name]; !ok || v != f.value {
			t.Fatalf("header %q: got %q, want %q (present %v)", f.name, f.value, v, ok)
		}
		if got.Header(f.name) != refHeaderGet(want, f.name) {
			t.Fatalf("lookup of %q disagrees", f.name)
		}
		if i > 0 && got[i-1].name >= f.name {
			t.Fatalf("header set out of order: %v", got)
		}
	}
}

// checkFrames walks stream with Frame and requires it to cut exactly the
// messages the parser returned, leaving exactly what the parser holds.
func checkFrames(t *testing.T, stream []byte, bodies [][]byte, buffered int) {
	t.Helper()
	pos := 0
	for i, body := range bodies {
		h, b, err := Frame(stream[pos:])
		if err != nil || h == 0 || b != len(body) || len(stream)-pos-h < b {
			t.Fatalf("Frame at message %d (offset %d): head %d body %d err %v, parser body %d", i, pos, h, b, err, len(body))
		}
		pos += h + b
	}
	if pos != len(stream)-buffered {
		t.Fatalf("Frame consumed %d of %d bytes, parser holds %d", pos, len(stream), buffered)
	}
}

// FuzzHTTPCodecDifferential runs the streaming codec against the
// reference parser (reference_test.go) over arbitrary byte streams cut
// at arbitrary points, as requests and as responses: after every Feed
// both must have returned the same messages, the same error and hold the
// same number of bytes. The piece handed to the streaming parser is
// overwritten as soon as Feed returns, so a message that still pointed
// into it would differ. Streams that parse cleanly are then re-cut with
// Frame, which must agree with the parsers on every boundary.
func FuzzHTTPCodecDifferential(f *testing.F) {
	get := NewRequest("/obj", "svc").Marshal()
	post := NewRequest("/upload", "svc")
	post.Method, post.Body = "POST", bytes.Repeat([]byte("b"), 4000)
	resp := NewResponse(200, bytes.Repeat([]byte("r"), 3000))
	resp.SetHeader("x-backend", "srv-1")
	pipelined := bytes.Join([][]byte{get, post.Marshal(), get, resp.Marshal(), NewResponse(404, nil).Marshal()}, nil)
	for _, chunk := range []int{0, 1, 3, 1460, 1 << 20} {
		f.Add(get, chunk)
		f.Add(post.Marshal(), chunk)
		f.Add(resp.Marshal(), chunk)
		f.Add(pipelined, chunk)
	}
	f.Add([]byte("GET / HTTP/1.1\r\nhost: a\r\nHOST:  b \r\nx-y-z:q\r\n: empty\r\n\r\n"), 2)
	f.Add([]byte("HTTP/1.1 200\r\ncontent-length: 3\r\nContent-Length: 2\r\n\r\nabGET"), 1)
	f.Add([]byte("HTTP/1.0 -7 odd status text\r\nContent-Length: +4\r\n\r\nbody"), 5)
	f.Add([]byte("GET / HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\nx"), 4)
	f.Add([]byte("GET / HTTP/1.1\r\nNoColon\r\n\r\n"), 7)
	f.Add([]byte("\r\n\r\nGET / HTTP/1.1\r\n\r\n"), 1)
	f.Add(bytes.Repeat([]byte("A"), maxHeaderBytes+2), 1460)
	f.Fuzz(func(t *testing.T, stream []byte, chunk int) {
		var (
			reqNew  RequestParser
			reqRef  refRequestParser
			respNew ResponseParser
			respRef refResponseParser
		)
		differential(t, stream, chunk, reqNew.Feed, reqRef.Feed, reqNew.Buffered, reqRef.Buffered,
			sameRequest, func(r *Request) []byte { return r.Body })
		differential(t, stream, chunk, respNew.Feed, respRef.Feed, respNew.Buffered, respRef.Buffered,
			sameResponse, func(r *Response) []byte { return r.Body })
	})
}

// differential feeds stream, cut by chunk, to a streaming parser and to
// its reference and compares them after every Feed.
func differential[N, R any](t *testing.T, stream []byte, chunk int,
	feedNew func([]byte) ([]*N, error), feedRef func([]byte) ([]*R, error),
	heldNew, heldRef func() int, same func(*testing.T, *N, *R), body func(*N) []byte) {
	t.Helper()
	var kept []*N
	var want []*R
	var scratch []byte
	failed := false
	for c := newChunker(stream, chunk); len(c.data) > 0; {
		piece := c.next()
		scratch = append(scratch[:0], piece...)
		got, errNew := feedNew(scratch)
		for i := range scratch {
			scratch[i] = 0xA5
		}
		ref, errRef := feedRef(piece)
		if !errors.Is(errNew, errRef) || (errNew == nil) != (errRef == nil) {
			t.Fatalf("error: got %v, want %v", errNew, errRef)
		}
		if len(got) != len(ref) {
			t.Fatalf("messages completed: got %d, want %d", len(got), len(ref))
		}
		kept, want = append(kept, got...), append(want, ref...)
		if errNew != nil {
			failed = true
			break
		}
		if heldNew() != heldRef() {
			t.Fatalf("Buffered: got %d, want %d", heldNew(), heldRef())
		}
	}
	// Compared only now, after every later piece was fed and overwritten.
	bodies := make([][]byte, len(kept))
	for i := range kept {
		same(t, kept[i], want[i])
		bodies[i] = body(kept[i])
	}
	if !failed {
		checkFrames(t, stream, bodies, heldNew())
	}
}
