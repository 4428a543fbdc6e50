package memcache

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// This file preserves the original allocation-heavy text-protocol parser
// (string conversion per line, strings.Fields, fmt responses, per-value
// copies, the string-keyed engine API), narrowed to the four verbs the
// session speaks. It is test code: the behavioral reference that the
// zero-copy Session in proto.go is pinned against by the differential
// tests and FuzzMemcacheSessionDifferential.
// When changing protocol behavior, change both and extend the tests.

// ReferenceSession answers the same byte stream as Session.
type ReferenceSession struct {
	engine *Engine
	buf    bytes.Buffer
}

// NewReferenceSession creates a reference protocol session bound to an
// engine.
func NewReferenceSession(engine *Engine) *ReferenceSession {
	return &ReferenceSession{engine: engine}
}

// Feed consumes input bytes and returns the response bytes produced by
// any commands completed by this input.
func (s *ReferenceSession) Feed(data []byte) []byte {
	s.buf.Write(data)
	var out bytes.Buffer
	for {
		resp, ok := s.step()
		if !ok {
			break
		}
		out.Write(resp)
	}
	return out.Bytes()
}

// step attempts to parse and execute one command; ok=false means more
// input is needed.
func (s *ReferenceSession) step() (resp []byte, ok bool) {
	raw := s.buf.Bytes()
	nl := bytes.Index(raw, []byte("\r\n"))
	if nl < 0 {
		return nil, false
	}
	line := string(raw[:nl])
	fields := strings.Fields(line)
	if len(fields) == 0 {
		s.buf.Next(nl + 2)
		return []byte("ERROR\r\n"), true
	}
	cmd := fields[0]
	switch cmd {
	case "set":
		return s.setCommand(fields[1:], raw, nl)
	case "mset":
		return s.msetCommand(fields[1:], raw, nl)
	case "get":
		s.buf.Next(nl + 2)
		return s.getCommand(fields[1:]), true
	case "delete":
		s.buf.Next(nl + 2)
		if len(fields) < 2 {
			return []byte("CLIENT_ERROR bad command line\r\n"), true
		}
		if s.engine.Delete(fields[1]) {
			return []byte("DELETED\r\n"), true
		}
		return []byte("NOT_FOUND\r\n"), true
	default:
		s.buf.Next(nl + 2)
		return []byte("ERROR\r\n"), true
	}
}

// setCommand handles
//
//	set <key> <flags> <exptime> <bytes>\r\n<data>\r\n
func (s *ReferenceSession) setCommand(args []string, raw []byte, nl int) ([]byte, bool) {
	if len(args) < 4 {
		s.buf.Next(nl + 2)
		return []byte("CLIENT_ERROR bad command line\r\n"), true
	}
	key := args[0]
	flags, err1 := strconv.ParseUint(args[1], 10, 32)
	exptime, err2 := strconv.Atoi(args[2])
	size, err3 := strconv.Atoi(args[3])
	if err1 != nil || err2 != nil || err3 != nil || size < 0 || size > 8<<20 || len(key) > 250 {
		s.buf.Next(nl + 2)
		return []byte("CLIENT_ERROR bad data chunk\r\n"), true
	}
	// Need the full data block plus trailing CRLF.
	need := nl + 2 + size + 2
	if len(raw) < need {
		return nil, false
	}
	data := append([]byte(nil), raw[nl+2:nl+2+size]...)
	s.buf.Next(need)
	s.engine.Set(Item{Key: key, Value: data, Flags: uint32(flags), Expires: expiry(exptime, s.engine.now())})
	return []byte("STORED\r\n"), true
}

// msetCommand handles the batched storage extension:
//
//	mset <n>\r\n
//	<key> <flags> <exptime> <bytes>\r\n<data>\r\n   (× n)
//
// answered by a single "MSTORED <n>\r\n" line once every record is
// stored. A replicated multi-key write therefore costs one round trip
// per server regardless of the record count; TCPStore's SetMulti is the
// intended client.
func (s *ReferenceSession) msetCommand(args []string, raw []byte, nl int) ([]byte, bool) {
	if len(args) < 1 {
		s.buf.Next(nl + 2)
		return []byte("CLIENT_ERROR bad command line\r\n"), true
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n <= 0 || n > MaxBatchRecords {
		s.buf.Next(nl + 2)
		return []byte("CLIENT_ERROR bad record count\r\n"), true
	}
	items := make([]Item, 0, n)
	pos := nl + 2
	for i := 0; i < n; i++ {
		rest := raw[pos:]
		rnl := bytes.Index(rest, []byte("\r\n"))
		if rnl < 0 {
			return nil, false // record header still arriving
		}
		rf := strings.Fields(string(rest[:rnl]))
		if len(rf) != 4 {
			s.buf.Next(pos + rnl + 2)
			return []byte("CLIENT_ERROR bad record line\r\n"), true
		}
		flags, err1 := strconv.ParseUint(rf[1], 10, 32)
		exptime, err2 := strconv.Atoi(rf[2])
		size, err3 := strconv.Atoi(rf[3])
		if err1 != nil || err2 != nil || err3 != nil || size < 0 || size > 8<<20 || len(rf[0]) > 250 {
			s.buf.Next(pos + rnl + 2)
			return []byte("CLIENT_ERROR bad data chunk\r\n"), true
		}
		need := pos + rnl + 2 + size + 2
		if len(raw) < need {
			return nil, false // data block still arriving
		}
		items = append(items, Item{
			Key:     rf[0],
			Value:   append([]byte(nil), rest[rnl+2:rnl+2+size]...),
			Flags:   uint32(flags),
			Expires: expiry(exptime, s.engine.now()),
		})
		pos = need
	}
	s.buf.Next(pos)
	for _, it := range items {
		s.engine.Set(it)
	}
	return []byte(fmt.Sprintf("MSTORED %d\r\n", len(items))), true
}

func (s *ReferenceSession) getCommand(keys []string) []byte {
	var out bytes.Buffer
	for _, key := range keys {
		it, ok := s.engine.Get(key)
		if !ok {
			continue
		}
		fmt.Fprintf(&out, "VALUE %s %d %d\r\n", it.Key, it.Flags, len(it.Value))
		out.Write(it.Value)
		out.WriteString("\r\n")
	}
	out.WriteString("END\r\n")
	return out.Bytes()
}
