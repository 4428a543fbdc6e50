package httpsim

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The original httpsim codec (names prefixed ref, logic untouched), kept
// as the oracle the streaming codec is differentially tested against
// (FuzzHTTPCodecDifferential, TestMarshalGolden). It re-parses the whole buffer on every Feed and
// holds bodies in a bytes.Buffer — everything the new codec exists to
// avoid — which is exactly what makes it an independent reference.
//
// Two fixes were applied when it moved here, both bugs the new codec
// must not reproduce: refRequestParser applies maxHeaderBytes to the
// header block only (it used to reject any multi-segment body over
// 64 KiB), and a Content-Length so large that header+body overflows int
// means "need more" instead of a slice-bounds panic.

type refRequest struct {
	Method, Path, Version string
	Headers               map[string]string
	Body                  []byte
}

type refResponse struct {
	Version    string
	StatusCode int
	Status     string
	Headers    map[string]string
	Body       []byte
}

func (r *refRequest) Marshal() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s %s\r\n", r.Method, r.Path, r.Version)
	refWriteHeaders(&b, r.Headers)
	if len(r.Body) > 0 {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(r.Body))
	}
	b.WriteString("\r\n")
	b.Write(r.Body)
	return b.Bytes()
}

func (r *refResponse) Marshal() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %d %s\r\n", r.Version, r.StatusCode, r.Status)
	refWriteHeaders(&b, r.Headers)
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(r.Body))
	b.WriteString("\r\n")
	b.Write(r.Body)
	return b.Bytes()
}

func refWriteHeaders(b *bytes.Buffer, h map[string]string) {
	keys := make([]string, 0, len(h))
	for k := range h {
		if strings.EqualFold(k, "Content-Length") {
			continue // framing is computed at Marshal time
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s: %s\r\n", k, h[k])
	}
}

func refHeaderGet(h map[string]string, name string) string {
	if v, ok := h[name]; ok {
		return v
	}
	for k, v := range h {
		if strings.EqualFold(k, name) {
			return v
		}
	}
	return ""
}

func refCanonical(name string) string {
	b := []byte(name)
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - 'a' + 'A'
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
		upper = c == '-'
	}
	return string(b)
}

type refRequestParser struct {
	buf bytes.Buffer
}

func (p *refRequestParser) Feed(data []byte) ([]*refRequest, error) {
	p.buf.Write(data)
	var out []*refRequest
	for {
		req, consumed, err := refParseRequest(p.buf.Bytes())
		if err != nil {
			return out, err
		}
		if req == nil {
			if p.buf.Len() > maxHeaderBytes && !bytes.Contains(p.buf.Bytes(), []byte("\r\n\r\n")) {
				return out, ErrTooLarge
			}
			return out, nil
		}
		p.buf.Next(consumed)
		out = append(out, req)
	}
}

func (p *refRequestParser) Buffered() int { return p.buf.Len() }

func refParseRequestHeader(raw []byte) (*refRequest, error) {
	idx := bytes.Index(raw, []byte("\r\n\r\n"))
	if idx < 0 {
		if len(raw) > maxHeaderBytes {
			return nil, ErrTooLarge
		}
		return nil, nil
	}
	return refParseRequestHead(raw[:idx])
}

func refParseRequest(buf []byte) (*refRequest, int, error) {
	idx := bytes.Index(buf, []byte("\r\n\r\n"))
	if idx < 0 {
		return nil, 0, nil
	}
	req, err := refParseRequestHead(buf[:idx])
	if err != nil {
		return nil, 0, err
	}
	bodyLen := 0
	if cl := refHeaderGet(req.Headers, "Content-Length"); cl != "" {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 {
			return nil, 0, ErrMalformed
		}
		bodyLen = n
	}
	if bodyLen > math.MaxInt-idx-4 {
		return nil, 0, nil
	}
	total := idx + 4 + bodyLen
	if len(buf) < total {
		return nil, 0, nil
	}
	if bodyLen > 0 {
		req.Body = append([]byte(nil), buf[idx+4:total]...)
	}
	return req, total, nil
}

func refParseRequestHead(head []byte) (*refRequest, error) {
	lines := strings.Split(string(head), "\r\n")
	if len(lines) == 0 {
		return nil, ErrMalformed
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, ErrMalformed
	}
	req := &refRequest{
		Method:  parts[0],
		Path:    parts[1],
		Version: parts[2],
		Headers: make(map[string]string, len(lines)-1),
	}
	if err := refParseHeaderLines(lines[1:], req.Headers); err != nil {
		return nil, err
	}
	return req, nil
}

type refResponseParser struct {
	buf bytes.Buffer
}

func (p *refResponseParser) Feed(data []byte) ([]*refResponse, error) {
	p.buf.Write(data)
	var out []*refResponse
	for {
		resp, consumed, err := refParseResponse(p.buf.Bytes())
		if err != nil {
			return out, err
		}
		if resp == nil {
			if p.buf.Len() > maxHeaderBytes && !bytes.Contains(p.buf.Bytes(), []byte("\r\n\r\n")) {
				return out, ErrTooLarge
			}
			return out, nil
		}
		p.buf.Next(consumed)
		out = append(out, resp)
	}
}

func (p *refResponseParser) Buffered() int { return p.buf.Len() }

func refParseResponse(buf []byte) (*refResponse, int, error) {
	idx := bytes.Index(buf, []byte("\r\n\r\n"))
	if idx < 0 {
		return nil, 0, nil
	}
	lines := strings.Split(string(buf[:idx]), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, 0, ErrMalformed
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, 0, ErrMalformed
	}
	resp := &refResponse{
		Version:    parts[0],
		StatusCode: code,
		Headers:    make(map[string]string, len(lines)-1),
	}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	if err := refParseHeaderLines(lines[1:], resp.Headers); err != nil {
		return nil, 0, err
	}
	bodyLen := 0
	if cl := refHeaderGet(resp.Headers, "Content-Length"); cl != "" {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 {
			return nil, 0, ErrMalformed
		}
		bodyLen = n
	}
	if bodyLen > math.MaxInt-idx-4 {
		return nil, 0, nil
	}
	total := idx + 4 + bodyLen
	if len(buf) < total {
		return nil, 0, nil
	}
	if bodyLen > 0 {
		resp.Body = append([]byte(nil), buf[idx+4:total]...)
	}
	return resp, total, nil
}

func refParseHeaderLines(lines []string, into map[string]string) error {
	for _, line := range lines {
		if line == "" {
			continue
		}
		kv := strings.SplitN(line, ":", 2)
		if len(kv) != 2 {
			return ErrMalformed
		}
		into[refCanonical(strings.TrimSpace(kv[0]))] = strings.TrimSpace(kv[1])
	}
	return nil
}
