package httpsim

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
)

// Parse errors.
var (
	ErrMalformed = errors.New("httpsim: malformed message")
	ErrTooLarge  = errors.New("httpsim: header exceeds limit")
)

const (
	// maxHeaderBytes bounds header accumulation so a garbage stream cannot
	// grow a parser without limit; a body is bounded by its declared length.
	maxHeaderBytes = 64 * 1024
	// headScratch is the first allocation for a header block that arrives
	// in pieces; typical heads fit, so a byte-at-a-time peer costs one.
	headScratch = 512
	// maxBodyPrealloc caps what a declared Content-Length reserves up
	// front; a longer body grows from there as it actually arrives.
	maxBodyPrealloc = 1 << (bodyBins - 1) // 1 MiB
	// bodyBins is the number of power-of-two size classes of bodyPools,
	// the last maxBodyPrealloc's own.
	bodyBins = 21
)

var crlf, crlfcrlf = []byte("\r\n"), []byte("\r\n\r\n")

// Frame locates the message at the front of buf without building it:
// headLen is the length of its header block including the blank line
// that ends it, or 0 while that line has not arrived; bodyLen is what
// the last Content-Length line declares. The message is complete once
// len(buf)-headLen >= bodyLen. Start-line and header-line syntax are not
// Frame's business; the parsers reject what is malformed.
func Frame(buf []byte) (headLen, bodyLen int, err error) {
	end, err := headerEnd(buf)
	if end < 0 {
		return 0, 0, err
	}
	var value []byte
	_, lines, _ := bytes.Cut(buf[:end], crlf)
	for len(lines) > 0 {
		var line []byte
		line, lines, _ = bytes.Cut(lines, crlf)
		if name, v, ok := bytes.Cut(line, []byte{':'}); ok && bytes.EqualFold(bytes.TrimSpace(name), []byte(contentLength)) {
			value = bytes.TrimSpace(v)
		}
	}
	bodyLen, err = parseContentLength(string(value))
	return end + 4, bodyLen, err
}

// headerEnd returns the offset of the blank line that ends the header
// block at the front of buf, or -1 while it has not arrived.
func headerEnd(buf []byte) (int, error) {
	end := bytes.Index(buf, crlfcrlf)
	if end < 0 && len(buf) > maxHeaderBytes {
		return -1, ErrTooLarge
	}
	return end, nil
}

func parseContentLength(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, ErrMalformed
	}
	return n, nil
}

// parser is the state machine behind RequestParser and ResponseParser.
// Inside a header block cur is nil and head holds the bytes of a block
// that is still incomplete; only newly arrived bytes are searched for
// its end. Inside a body cur is the message parsed from the head, body
// its buffer and need the bytes still to come. A header block is parsed
// exactly once, from one string copy the message's fields point into;
// body bytes are copied exactly once, into a buffer the finished message
// takes with it. Between messages the parser holds nothing. Its size is
// pinned (TestParserSizeUnchanged): what varies per caller, such as where
// a body's array comes from, is an argument of feed, not a field.
type parser[M any] struct {
	head    []byte
	cur     *M
	body    []byte
	need    int
	headLen int // wire length of cur's header block
	err     error
}

// buffered returns the bytes fed but not yet returned inside a message.
func (p *parser[M]) buffered() int { return len(p.head) + p.headLen + len(p.body) }

// headEnd returns the offset in data just past the blank line that ends
// the current header block, or -1 if it is not there yet. Only data is
// searched, plus the up to three held bytes a terminator could straddle.
func (p *parser[M]) headEnd(data []byte) int {
	if k := len(p.head); k > 0 {
		tail := p.head[max(0, k-3):]
		var w [6]byte
		n := copy(w[:], tail)
		n += copy(w[n:], data[:min(3, len(data))])
		if i := bytes.Index(w[:n], crlfcrlf); i >= 0 {
			return i + 4 - len(tail)
		}
	}
	if i := bytes.Index(data, crlfcrlf); i >= 0 {
		return i + 4
	}
	return -1
}

// feed consumes data and returns the messages it completes. parseHead
// turns a header block (without its blank line) into a message and its
// header set; done hands the finished message its body and returns its
// own one-element array, emptied, to return it in: no slice is allocated
// unless one call completes two, and the parser keeps no reference. An
// array in the parser would pin an idle keep-alive connection's last
// message, body and all (held-failover's heap per live flow: 3.1 → 5.5 KB).
// A body's array comes from lend (see bodyLoan.array; nil makes one).
func (p *parser[M]) feed(data []byte, parseHead func(string) (*M, header, error), done func(*M, []byte) []*M, lend *bodyLoan) ([]*M, error) {
	var out []*M
	for p.err == nil {
		if p.cur == nil {
			end := p.headEnd(data)
			if end < 0 {
				if p.head == nil && len(data) > 0 {
					p.head = make([]byte, 0, max(len(data), headScratch))
				}
				if p.head = append(p.head, data...); len(p.head) > maxHeaderBytes {
					p.err = ErrTooLarge
				}
				break
			}
			block := data[:end]
			if p.head != nil {
				block = append(p.head, block...)
			}
			var hdr header
			if p.cur, hdr, p.err = parseHead(string(block[:len(block)-4])); p.err != nil {
				break
			}
			if p.need, p.err = parseContentLength(hdr.Header(contentLength)); p.err != nil {
				break
			}
			p.head, p.headLen, data = nil, len(block), data[end:]
			if p.need > 0 {
				p.body = lend.array(p.need)
			}
		}
		n := min(p.need, len(data))
		p.body = append(p.body, data[:n]...)
		p.need -= n
		if p.need > 0 {
			break
		}
		if ret := done(p.cur, p.body); out == nil {
			out = ret
		}
		out = append(out, p.cur)
		p.cur, p.body, p.headLen, data = nil, nil, 0, data[n:]
	}
	return out, p.err
}

// RequestParser incrementally parses a stream of HTTP requests,
// back-to-back (keep-alive and pipelined) ones included. The zero value
// is ready to use.
type RequestParser struct{ p parser[Request] }

// Feed consumes data and returns any requests completed by it, in a slice
// valid only until the next Feed (the requests are the caller's). It
// keeps no reference to data. After an error the parser stays failed.
func (p *RequestParser) Feed(data []byte) ([]*Request, error) {
	return p.p.feed(data, parseRequest, (*Request).done, nil)
}

func parseRequest(head string) (*Request, header, error) {
	r := &Request{}
	err := r.parseHead(head)
	return r, r.header, err
}

func (r *Request) done(body []byte) []*Request {
	r.Body = body
	return r.ret[:0]
}

// Buffered returns the number of unconsumed bytes held by the parser.
func (p *RequestParser) Buffered() int { return p.p.buffered() }

// ParseRequestHeader parses the header block at the front of raw into
// dst, body or not; complete is false until the block is all there.
// Reusing dst's header storage, it allocates only the head's string copy,
// which strings taken from dst may keep. Yoda and HAProxy parse with it.
func ParseRequestHeader(dst *Request, raw []byte) (complete bool, err error) {
	end, err := headerEnd(raw)
	if end < 0 {
		return false, err
	}
	return true, dst.parseHead(string(raw[:end]))
}

// parseHead fills r from a head without its blank line; of r's old
// contents only the header and cookie storage survive, for reuse.
func (r *Request) parseHead(head string) error {
	line, lines, _ := strings.Cut(head, "\r\n")
	method, line, ok1 := strings.Cut(line, " ")
	path, version, ok2 := strings.Cut(line, " ")
	if !ok1 || !ok2 || !strings.HasPrefix(version, "HTTP/") {
		return ErrMalformed
	}
	hdr, err := parseFields(r.header[:0], lines)
	if err != nil {
		return err
	}
	*r = Request{Method: method, Path: path, Version: version, header: hdr,
		cookies: cookieView{pairs: r.cookies.pairs[:0]}}
	return nil
}

// ResponseParser incrementally parses a stream of HTTP responses. The
// zero value is ready to use.
type ResponseParser struct{ p parser[Response] }

// Feed consumes data and returns any responses completed by it, in a
// slice valid only until the next Feed (the responses are the caller's).
// It keeps no reference to data. After an error the parser stays failed.
func (p *ResponseParser) Feed(data []byte) ([]*Response, error) {
	return p.p.feed(data, parseResponseHead, (*Response).done, nil)
}

func (r *Response) done(body []byte) []*Response {
	r.Body = body
	return r.ret[:0]
}

// Buffered returns the number of unconsumed bytes held by the parser.
func (p *ResponseParser) Buffered() int { return p.p.buffered() }

func parseResponseHead(head string) (*Response, header, error) {
	line, lines, _ := strings.Cut(head, "\r\n")
	version, line, ok := strings.Cut(line, " ")
	if !ok || !strings.HasPrefix(version, "HTTP/") {
		return nil, nil, ErrMalformed
	}
	codeText, status, _ := strings.Cut(line, " ")
	code, err := strconv.Atoi(codeText)
	if err != nil {
		return nil, nil, ErrMalformed
	}
	hdr, err := parseFields(nil, lines)
	if err != nil {
		return nil, nil, err
	}
	return &Response{Version: version, StatusCode: code, Status: status, header: hdr}, hdr, nil
}

// parseFields parses a head's header lines into hdr's storage, or a new
// set's if it is too small; the strings are substrings of lines.
func parseFields(hdr header, lines string) (header, error) {
	if lines == "" {
		return hdr, nil
	}
	if n := strings.Count(lines, "\r\n") + 1; cap(hdr) < n {
		hdr = make(header, 0, n)
	}
	for lines != "" {
		var line string
		line, lines, _ = strings.Cut(lines, "\r\n")
		if line == "" {
			continue
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, ErrMalformed
		}
		hdr.SetHeader(strings.TrimSpace(name), strings.TrimSpace(value))
	}
	return hdr, nil
}
