// Package httpsim provides a minimal HTTP/1.0-1.1 implementation that
// operates on raw byte streams: an incremental request/response parser,
// message serialization, an origin server, and a browser-style client.
//
// The standard library's net/http cannot be used here because every
// message must flow through the simulated TCP endpoints (and, inside the
// Yoda instance, be parsed out of raw segment payloads before a backend
// is even chosen). The server never modifies a Handler's Response, and
// a parser's Feed returns its messages in a slice valid until the next.
package httpsim

import (
	"slices"
	"strconv"
	"strings"
)

// field is one header line.
type field struct{ name, value string }

// header is the header set Request and Response embed: canonical names,
// each at most once (a later set wins), kept sorted by name so
// serialization walks it in wire order. On a parsed message every string
// is a substring of the one copy of the head the parser made.
type header []field

// Header returns the value of the named header (case-insensitive), or "".
// Hot callers (the rule engine, framing) pass canonical names and hit the
// exact comparison; the fold-insensitive scan covers every other spelling.
func (h header) Header(name string) string {
	for i := range h {
		if h[i].name == name {
			return h[i].value
		}
	}
	for i := range h {
		if strings.EqualFold(h[i].name, name) {
			return h[i].value
		}
	}
	return ""
}

// SetHeader sets a header, canonicalizing its name. Its place is sought
// from the end because wire heads and Marshal output arrive sorted.
func (h *header) SetHeader(name, value string) {
	name = canonical(name)
	i := len(*h)
	for i > 0 && (*h)[i-1].name >= name {
		i--
	}
	if i < len(*h) && (*h)[i].name == name {
		(*h)[i].value = value
		return
	}
	*h = slices.Insert(*h, i, field{name, value})
}

const contentLength = "Content-Length"

// appendTo appends the header lines, then the Content-Length line for an
// n-byte body if n >= 0, then the blank line. A stored Content-Length is
// never copied: framing is computed when the message is serialized. With
// close, the lines are those of the set after SetHeader("Connection",
// "close") — the line at its sorted place, any stored Connection dropped —
// without the set being changed.
func (h header) appendTo(dst []byte, n int, close bool) []byte {
	for _, f := range h {
		if close && f.name >= "Connection" {
			dst, close = append(dst, "Connection: close\r\n"...), false
			if f.name == "Connection" {
				continue
			}
		}
		if f.name != contentLength {
			dst = append(append(append(append(dst, f.name...), ": "...), f.value...), "\r\n"...)
		}
	}
	if close {
		dst = append(dst, "Connection: close\r\n"...)
	}
	if n >= 0 {
		dst = strconv.AppendInt(append(dst, "Content-Length: "...), int64(n), 10)
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// marshal joins a serialized head and a body in one exact-size buffer.
func marshal(head, body []byte) []byte {
	return append(append(make([]byte, 0, len(head)+len(body)), head...), body...)
}

// Request is an HTTP request. Headers are reached through Header,
// SetHeader and Cookie.
type Request struct {
	Method  string
	Path    string
	Version string // "HTTP/1.0" or "HTTP/1.1"
	// Body of a parsed request is the parser's own buffer, handed over
	// without a copy; the request owns it.
	Body []byte

	header
	// cookies memoizes the parsed Cookie header (see view.go) so rule
	// evaluation pays the parse once per request, not once per rule.
	cookies cookieView
	ret     [1]*Request // what RequestParser.Feed returns the request in
}

// NewRequest builds a GET request for path with sensible defaults.
func NewRequest(path, host string) *Request {
	return &Request{
		Method:  "GET",
		Path:    path,
		Version: "HTTP/1.1",
		header:  header{{"Host", host}},
	}
}

// Cookie returns the value of the named cookie from the Cookie header, or
// "" if absent. The header is parsed at most once per request (and again
// only if it is rewritten); repeated lookups are allocation-free.
func (r *Request) Cookie(name string) string {
	raw := r.Header("Cookie")
	if raw == "" {
		return ""
	}
	if !r.cookies.parsed || r.cookies.src != raw {
		r.cookies.parse(raw)
	}
	return r.cookies.lookup(name)
}

// KeepAlive reports whether the connection should persist after this
// request (HTTP/1.1 default unless "Connection: close").
func (r *Request) KeepAlive() bool {
	conn := r.Header("Connection")
	if r.Version == "HTTP/1.1" {
		return !strings.EqualFold(conn, "close")
	}
	return strings.EqualFold(conn, "keep-alive")
}

// appendHead appends the request line and header block, through the
// blank line that ends it; close adds Connection: close (see appendTo).
func (r *Request) appendHead(dst []byte, close bool) []byte {
	dst = append(append(append(append(append(dst, r.Method...), ' '), r.Path...), ' '), r.Version...)
	n := len(r.Body)
	if n == 0 {
		n = -1 // a request without a body declares no length
	}
	return r.header.appendTo(append(dst, "\r\n"...), n, close)
}

// Marshal serializes the request onto the wire.
func (r *Request) Marshal() []byte { return r.marshal(false) }

// MarshalClose is Marshal after SetHeader("Connection", "close"), as a
// one-request-per-connection client sends r, without changing r.
func (r *Request) MarshalClose() []byte { return r.marshal(true) }

func (r *Request) marshal(close bool) []byte {
	var buf [256]byte // heads are small: sized on the stack, copied once
	return marshal(r.appendHead(buf[:0], close), r.Body)
}

// Response is an HTTP response. Headers are reached through Header and
// SetHeader.
type Response struct {
	Version    string
	StatusCode int
	Status     string
	// Body of a parsed response is the parser's own buffer, handed over
	// without a copy; the response owns it — except in a Client.Fetch
	// result, whose body is only lent to done (see Fetch).
	Body []byte

	header
	ret [1]*Response // what ResponseParser.Feed returns the response in
}

// NewResponse builds a response with the given status carrying body.
func NewResponse(code int, body []byte) *Response {
	return &Response{
		Version:    "HTTP/1.1",
		StatusCode: code,
		Status:     statusText(code),
		Body:       body,
	}
}

// appendHead appends the status line and header block, through the
// blank line that ends it, always emitting a Content-Length so the peer
// can frame the body; close adds Connection: close (see appendTo).
func (r *Response) appendHead(dst []byte, close bool) []byte {
	dst = strconv.AppendInt(append(append(dst, r.Version...), ' '), int64(r.StatusCode), 10)
	dst = append(append(append(dst, ' '), r.Status...), "\r\n"...)
	return r.header.appendTo(dst, len(r.Body), close)
}

// Marshal serializes the response onto the wire.
func (r *Response) Marshal() []byte {
	var buf [256]byte // heads are small: sized on the stack, copied once
	return marshal(r.appendHead(buf[:0], false), r.Body)
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Unknown"
	}
}

// canonical converts a header name to Canonical-Form. Only ASCII letters
// are case-mapped; other bytes pass through untouched, so the function is
// idempotent on arbitrary input. A name already in canonical form is
// returned as it is, without allocating.
func canonical(name string) string {
	var b []byte
	upper := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		if upper && 'a' <= c && c <= 'z' || !upper && 'A' <= c && c <= 'Z' {
			if b == nil {
				b = []byte(name)
			}
			b[i] = c ^ 0x20
		}
		upper = c == '-'
	}
	if b == nil {
		return name
	}
	return string(b)
}
