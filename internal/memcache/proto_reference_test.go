package memcache

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// This file preserves the original allocation-heavy text-protocol parser
// verbatim (string conversion per line, strings.Fields, fmt responses,
// per-value copies). It is test code, not used by the transports: it
// exists as the behavioral reference that the zero-copy Session in
// proto.go is pinned against by the differential tests and
// FuzzMemcacheSessionDifferential.
// When changing protocol behavior, change both and extend the tests.

// ReferenceSession is a transport-agnostic protocol endpoint: feed it raw bytes
// from one client connection and it produces response bytes against an
// Engine. Both the real-TCP server and the netsim server wrap one Session
// per connection.
type ReferenceSession struct {
	engine *Engine
	buf    bytes.Buffer
	// closed is set once "quit" is processed; the transport should then
	// close the connection.
	closed bool
}

// NewReferenceSession creates a reference protocol session bound to an
// engine.
func NewReferenceSession(engine *Engine) *ReferenceSession {
	return &ReferenceSession{engine: engine}
}

// Closed reports whether the peer sent "quit".
func (s *ReferenceSession) Closed() bool { return s.closed }

// Feed consumes input bytes and returns the response bytes produced by
// any commands completed by this input.
func (s *ReferenceSession) Feed(data []byte) []byte {
	s.buf.Write(data)
	var out bytes.Buffer
	for !s.closed {
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
	case "set", "add", "replace", "cas", "append", "prepend":
		return s.storageCommand(cmd, fields[1:], raw, nl)
	case "mset":
		return s.msetCommand(fields[1:], raw, nl)
	case "incr", "decr":
		s.buf.Next(nl + 2)
		if len(fields) < 3 {
			return []byte("CLIENT_ERROR bad command line\r\n"), true
		}
		delta, err := strconv.ParseUint(fields[2], 10, 63)
		if err != nil {
			return []byte("CLIENT_ERROR invalid numeric delta argument\r\n"), true
		}
		d := int64(delta)
		if cmd == "decr" {
			d = -d
		}
		v, ok := s.engine.IncrDecr(fields[1], d)
		if !ok {
			if _, present := s.engine.Get(fields[1]); !present {
				return []byte("NOT_FOUND\r\n"), true
			}
			return []byte("CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"), true
		}
		return []byte(fmt.Sprintf("%d\r\n", v)), true
	case "get", "gets":
		s.buf.Next(nl + 2)
		return s.getCommand(cmd == "gets", fields[1:]), true
	case "delete":
		s.buf.Next(nl + 2)
		if len(fields) < 2 {
			return []byte("CLIENT_ERROR bad command line\r\n"), true
		}
		if s.engine.Delete(fields[1]) {
			return []byte("DELETED\r\n"), true
		}
		return []byte("NOT_FOUND\r\n"), true
	case "touch":
		s.buf.Next(nl + 2)
		if len(fields) < 3 {
			return []byte("CLIENT_ERROR bad command line\r\n"), true
		}
		exp, err := strconv.Atoi(fields[2])
		if err != nil {
			return []byte("CLIENT_ERROR bad command line\r\n"), true
		}
		if s.engine.Touch(fields[1], expiry(exp, s.engine.now())) {
			return []byte("TOUCHED\r\n"), true
		}
		return []byte("NOT_FOUND\r\n"), true
	case "flush_all":
		s.buf.Next(nl + 2)
		s.engine.FlushAll()
		return []byte("OK\r\n"), true
	case "stats":
		s.buf.Next(nl + 2)
		return s.statsCommand(), true
	case "version":
		s.buf.Next(nl + 2)
		return []byte("VERSION 1.6.0-repro\r\n"), true
	case "quit":
		s.buf.Next(nl + 2)
		s.closed = true
		return nil, true
	default:
		s.buf.Next(nl + 2)
		return []byte("ERROR\r\n"), true
	}
}

// storageCommand handles set/add/replace/cas:
//
//	<cmd> <key> <flags> <exptime> <bytes> [casid] [noreply]\r\n<data>\r\n
func (s *ReferenceSession) storageCommand(cmd string, args []string, raw []byte, nl int) ([]byte, bool) {
	minArgs := 4
	if cmd == "cas" {
		minArgs = 5
	}
	if len(args) < minArgs {
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
	var casID uint64
	var err4 error
	noreply := false
	rest := args[4:]
	if cmd == "cas" {
		casID, err4 = strconv.ParseUint(args[4], 10, 64)
		if err4 != nil {
			s.buf.Next(nl + 2)
			return []byte("CLIENT_ERROR bad command line\r\n"), true
		}
		rest = args[5:]
	}
	if len(rest) > 0 && rest[len(rest)-1] == "noreply" {
		noreply = true
	}
	// Need the full data block plus trailing CRLF.
	need := nl + 2 + size + 2
	if len(raw) < need {
		return nil, false
	}
	data := append([]byte(nil), raw[nl+2:nl+2+size]...)
	s.buf.Next(need)
	it := Item{Key: key, Value: data, Flags: uint32(flags), Expires: expiry(exptime, s.engine.now())}
	var reply string
	switch cmd {
	case "set":
		s.engine.Set(it)
		reply = "STORED\r\n"
	case "add":
		if s.engine.Add(it) {
			reply = "STORED\r\n"
		} else {
			reply = "NOT_STORED\r\n"
		}
	case "replace":
		if s.engine.Replace(it) {
			reply = "STORED\r\n"
		} else {
			reply = "NOT_STORED\r\n"
		}
	case "cas":
		switch s.engine.CAS(it, casID) {
		case CASStored:
			reply = "STORED\r\n"
		case CASExists:
			reply = "EXISTS\r\n"
		case CASNotFound:
			reply = "NOT_FOUND\r\n"
		}
	case "append":
		if s.engine.Append(key, data) {
			reply = "STORED\r\n"
		} else {
			reply = "NOT_STORED\r\n"
		}
	case "prepend":
		if s.engine.Prepend(key, data) {
			reply = "STORED\r\n"
		} else {
			reply = "NOT_STORED\r\n"
		}
	}
	if noreply {
		return nil, true
	}
	return []byte(reply), true
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

func (s *ReferenceSession) getCommand(withCAS bool, keys []string) []byte {
	var out bytes.Buffer
	for _, key := range keys {
		if withCAS {
			it, cas, ok := s.engine.GetWithCAS(key)
			if !ok {
				continue
			}
			fmt.Fprintf(&out, "VALUE %s %d %d %d\r\n", it.Key, it.Flags, len(it.Value), cas)
			out.Write(it.Value)
			out.WriteString("\r\n")
		} else {
			it, ok := s.engine.Get(key)
			if !ok {
				continue
			}
			fmt.Fprintf(&out, "VALUE %s %d %d\r\n", it.Key, it.Flags, len(it.Value))
			out.Write(it.Value)
			out.WriteString("\r\n")
		}
	}
	out.WriteString("END\r\n")
	return out.Bytes()
}

func (s *ReferenceSession) statsCommand() []byte {
	st := s.engine.Stats()
	var out bytes.Buffer
	fmt.Fprintf(&out, "STAT curr_items %d\r\n", st.CurrItems)
	fmt.Fprintf(&out, "STAT bytes %d\r\n", st.BytesUsed)
	fmt.Fprintf(&out, "STAT get_hits %d\r\n", st.GetHits)
	fmt.Fprintf(&out, "STAT get_misses %d\r\n", st.GetMisses)
	fmt.Fprintf(&out, "STAT cmd_set %d\r\n", st.Sets)
	fmt.Fprintf(&out, "STAT delete_hits %d\r\n", st.Deletes)
	fmt.Fprintf(&out, "STAT evictions %d\r\n", st.Evictions)
	fmt.Fprintf(&out, "STAT expired_unfetched %d\r\n", st.Expirations)
	out.WriteString("END\r\n")
	return out.Bytes()
}
