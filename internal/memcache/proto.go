package memcache

import (
	"bytes"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"
)

// Session is a transport-agnostic protocol endpoint: feed it raw bytes
// from one client connection and it produces response bytes against an
// Engine. Both the real-TCP server and the netsim server wrap one Session
// per connection.
//
// The parser is a zero-copy byte tokenizer: command lines are split into
// fields that alias the session's input buffer (no string conversions, no
// strings.Fields), values are sliced out of the buffer and copied exactly
// once — at the Engine-insert boundary — and responses are framed into
// reusable session-owned buffers. ReferenceSession (proto_reference_test.go)
// keeps the original implementation; the differential tests and
// FuzzMemcacheSessionDifferential pin the two byte-for-byte equal.
type Session struct {
	engine *Engine
	// in[head:] is the unconsumed input. The consumed prefix is compacted
	// away between Feeds so the buffer does not grow with the stream.
	in   []byte
	head int
	// Tokenizer scratch: fields for command lines, rfields for mset
	// record lines (separate because the command fields stay live while
	// records are parsed), recs for mset's parse-then-apply two-pass.
	fields  [][]byte
	rfields [][]byte
	recs    []msetRec
	// pool holds response buffers handed back via Release, ready for the
	// next Feed.
	pool [][]byte
	// closed is set once "quit" is processed; the transport should then
	// close the connection.
	closed bool
	// ops is the work the last Feed did, see Ops.
	ops int
}

// msetRec is one parsed-but-not-yet-applied mset record; key and val
// alias the session input buffer until the apply pass copies them into
// the engine.
type msetRec struct {
	key     []byte
	val     []byte
	flags   uint32
	expires time.Duration
}

// NewSession creates a protocol session bound to an engine.
func NewSession(engine *Engine) *Session {
	return &Session{engine: engine}
}

// Closed reports whether the peer sent "quit".
func (s *Session) Closed() bool { return s.closed }

// Ops returns the number of operations the last Feed executed: one per
// command line it consumed, malformed ones included, and n for a stored
// "mset n" — a batch saves round trips, not server work. The simulated
// server charges its CPU and queue by this count.
func (s *Session) Ops() int { return s.ops }

// Response buffer pool bounds: keep at most a few buffers (steady-state
// request/response traffic circulates one or two) and drop oversized ones
// so a single huge get does not pin memory forever.
const (
	maxPooledBufs   = 4
	maxPooledBufCap = 1 << 20
)

// Protocol response strings (shared with ReferenceSession by value: the
// differential tests compare raw bytes).
const (
	respError         = "ERROR\r\n"
	respBadCmdLine    = "CLIENT_ERROR bad command line\r\n"
	respBadDataChunk  = "CLIENT_ERROR bad data chunk\r\n"
	respBadRecordLine = "CLIENT_ERROR bad record line\r\n"
	respBadRecCount   = "CLIENT_ERROR bad record count\r\n"
	respBadDelta      = "CLIENT_ERROR invalid numeric delta argument\r\n"
	respNonNumeric    = "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
	respStored        = "STORED\r\n"
	respNotStored     = "NOT_STORED\r\n"
	respExists        = "EXISTS\r\n"
	respNotFound      = "NOT_FOUND\r\n"
	respDeleted       = "DELETED\r\n"
	respTouched       = "TOUCHED\r\n"
	respOK            = "OK\r\n"
	respEnd           = "END\r\n"
	respVersion       = "VERSION 1.6.0-repro\r\n"
)

// Feed consumes input bytes and returns the response bytes produced by
// any commands completed by this input (nil if none). The returned slice
// is a session-owned buffer: it stays valid until the caller hands it
// back with Release, which the transport should do once the bytes are on
// the wire. Feeding again before releasing is safe — each Feed takes a
// fresh buffer.
func (s *Session) Feed(data []byte) []byte {
	if s.head == len(s.in) {
		s.in = s.in[:0]
		s.head = 0
	}
	s.in = append(s.in, data...)
	out := s.takeBuf()
	s.ops = 0
	for !s.closed {
		var ok bool
		out, ok = s.step(out)
		if !ok {
			break
		}
		s.ops++
	}
	if s.head == len(s.in) {
		s.in = s.in[:0]
		s.head = 0
	} else if s.head > 4096 && s.head*2 >= len(s.in) {
		n := copy(s.in, s.in[s.head:])
		s.in = s.in[:n]
		s.head = 0
	}
	if len(out) == 0 {
		s.releaseBuf(out)
		return nil
	}
	return out
}

// Release returns a buffer obtained from Feed to the session's pool.
// Calling it with nil (a Feed that produced no response) is a no-op.
func (s *Session) Release(resp []byte) {
	s.releaseBuf(resp[:0])
}

func (s *Session) takeBuf() []byte {
	if n := len(s.pool); n > 0 {
		b := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return b
	}
	return nil
}

func (s *Session) releaseBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBufCap || len(s.pool) >= maxPooledBufs {
		return
	}
	s.pool = append(s.pool, b[:0])
}

// step attempts to parse and execute one command, appending any response
// to out; ok=false means more input is needed.
func (s *Session) step(out []byte) (_ []byte, ok bool) {
	raw := s.in[s.head:]
	nl := bytes.Index(raw, []byte("\r\n"))
	if nl < 0 {
		return out, false
	}
	s.fields = appendFields(s.fields[:0], raw[:nl])
	if len(s.fields) == 0 {
		s.head += nl + 2
		return append(out, respError...), true
	}
	cmd := s.fields[0]
	switch string(cmd) {
	case "set", "add", "replace", "cas", "append", "prepend":
		return s.storageCommand(out, raw, nl)
	case "mset":
		return s.msetCommand(out, raw, nl)
	case "incr", "decr":
		s.head += nl + 2
		if len(s.fields) < 3 {
			return append(out, respBadCmdLine...), true
		}
		delta, err := parseUintField(s.fields[2], 63)
		if err {
			return append(out, respBadDelta...), true
		}
		d := int64(delta)
		if cmd[0] == 'd' {
			d = -d
		}
		v, ok := s.engine.incrDecrBytes(s.fields[1], d)
		if !ok {
			if !s.engine.presentBytes(s.fields[1]) {
				return append(out, respNotFound...), true
			}
			return append(out, respNonNumeric...), true
		}
		out = appendUint(out, v)
		return append(out, '\r', '\n'), true
	case "get", "gets":
		s.head += nl + 2
		withCAS := len(cmd) == 4
		for _, key := range s.fields[1:] {
			out = s.engine.appendGetResponse(out, key, withCAS)
		}
		return append(out, respEnd...), true
	case "delete":
		s.head += nl + 2
		if len(s.fields) < 2 {
			return append(out, respBadCmdLine...), true
		}
		if s.engine.deleteBytes(s.fields[1]) {
			return append(out, respDeleted...), true
		}
		return append(out, respNotFound...), true
	case "touch":
		s.head += nl + 2
		if len(s.fields) < 3 {
			return append(out, respBadCmdLine...), true
		}
		exp, err := atoiField(s.fields[2])
		if err {
			return append(out, respBadCmdLine...), true
		}
		if s.engine.touchBytes(s.fields[1], expiry(exp, s.engine.now())) {
			return append(out, respTouched...), true
		}
		return append(out, respNotFound...), true
	case "flush_all":
		s.head += nl + 2
		s.engine.FlushAll()
		return append(out, respOK...), true
	case "stats":
		s.head += nl + 2
		return s.statsCommand(out), true
	case "version":
		s.head += nl + 2
		return append(out, respVersion...), true
	case "quit":
		s.head += nl + 2
		s.closed = true
		return out, true
	default:
		s.head += nl + 2
		return append(out, respError...), true
	}
}

// storageCommand handles set/add/replace/cas/append/prepend:
//
//	<cmd> <key> <flags> <exptime> <bytes> [casid] [noreply]\r\n<data>\r\n
func (s *Session) storageCommand(out []byte, raw []byte, nl int) ([]byte, bool) {
	cmd := s.fields[0]
	args := s.fields[1:]
	isCas := string(cmd) == "cas"
	minArgs := 4
	if isCas {
		minArgs = 5
	}
	if len(args) < minArgs {
		s.head += nl + 2
		return append(out, respBadCmdLine...), true
	}
	key := args[0]
	flags, err1 := parseUintField(args[1], 32)
	exptime, err2 := atoiField(args[2])
	size, err3 := atoiField(args[3])
	if err1 || err2 || err3 || size < 0 || size > 8<<20 || len(key) > 250 {
		s.head += nl + 2
		return append(out, respBadDataChunk...), true
	}
	var casID uint64
	rest := args[4:]
	if isCas {
		var err4 bool
		casID, err4 = parseUintField(args[4], 64)
		if err4 {
			s.head += nl + 2
			return append(out, respBadCmdLine...), true
		}
		rest = args[5:]
	}
	noreply := len(rest) > 0 && string(rest[len(rest)-1]) == "noreply"
	// Need the full data block plus trailing CRLF.
	need := nl + 2 + size + 2
	if len(raw) < need {
		return out, false
	}
	data := raw[nl+2 : nl+2+size]
	s.head += need
	expires := expiry(exptime, s.engine.now())
	var reply string
	switch string(cmd) {
	case "set":
		s.engine.setBytes(key, data, uint32(flags), expires)
		reply = respStored
	case "add":
		if s.engine.addBytes(key, data, uint32(flags), expires) {
			reply = respStored
		} else {
			reply = respNotStored
		}
	case "replace":
		if s.engine.replaceBytes(key, data, uint32(flags), expires) {
			reply = respStored
		} else {
			reply = respNotStored
		}
	case "cas":
		switch s.engine.casBytes(key, data, uint32(flags), expires, casID) {
		case CASStored:
			reply = respStored
		case CASExists:
			reply = respExists
		case CASNotFound:
			reply = respNotFound
		}
	case "append":
		if s.engine.concatBytes(key, data, false) {
			reply = respStored
		} else {
			reply = respNotStored
		}
	case "prepend":
		if s.engine.concatBytes(key, data, true) {
			reply = respStored
		} else {
			reply = respNotStored
		}
	}
	if noreply {
		return out, true
	}
	return append(out, reply...), true
}

// MaxBatchRecords bounds the record count of one mset command, so a
// corrupt count cannot make the session buffer unboundedly.
const MaxBatchRecords = 1024

// msetCommand handles the batched storage extension:
//
//	mset <n>\r\n
//	<key> <flags> <exptime> <bytes>\r\n<data>\r\n   (× n)
//
// answered by a single "MSTORED <n>\r\n" line once every record is
// stored. A replicated multi-key write therefore costs one round trip
// per server regardless of the record count; TCPStore's SetMulti is the
// intended client. Records are parsed and validated in a first pass
// (nothing is stored if any record is malformed or still arriving) and
// applied in a second.
func (s *Session) msetCommand(out []byte, raw []byte, nl int) ([]byte, bool) {
	args := s.fields[1:]
	if len(args) < 1 {
		s.head += nl + 2
		return append(out, respBadCmdLine...), true
	}
	n, err := atoiField(args[0])
	if err || n <= 0 || n > MaxBatchRecords {
		s.head += nl + 2
		return append(out, respBadRecCount...), true
	}
	recs := s.recs[:0]
	pos := nl + 2
	for i := 0; i < n; i++ {
		rest := raw[pos:]
		rnl := bytes.Index(rest, []byte("\r\n"))
		if rnl < 0 {
			s.recs = recs
			return out, false // record header still arriving
		}
		rf := appendFields(s.rfields[:0], rest[:rnl])
		s.rfields = rf
		if len(rf) != 4 {
			s.head += pos + rnl + 2
			s.recs = recs
			return append(out, respBadRecordLine...), true
		}
		flags, err1 := parseUintField(rf[1], 32)
		exptime, err2 := atoiField(rf[2])
		size, err3 := atoiField(rf[3])
		if err1 || err2 || err3 || size < 0 || size > 8<<20 || len(rf[0]) > 250 {
			s.head += pos + rnl + 2
			s.recs = recs
			return append(out, respBadDataChunk...), true
		}
		need := pos + rnl + 2 + size + 2
		if len(raw) < need {
			s.recs = recs
			return out, false // data block still arriving
		}
		recs = append(recs, msetRec{
			key:     rf[0],
			val:     rest[rnl+2 : rnl+2+size],
			flags:   uint32(flags),
			expires: expiry(exptime, s.engine.now()),
		})
		pos = need
	}
	s.head += pos
	for _, r := range recs {
		s.engine.setBytes(r.key, r.val, r.flags, r.expires)
	}
	s.recs = recs
	s.ops += len(recs) - 1 // Feed counts the command itself
	out = append(out, "MSTORED "...)
	out = appendUint(out, uint64(len(recs)))
	return append(out, '\r', '\n'), true
}

func (s *Session) statsCommand(out []byte) []byte {
	st := s.engine.Stats()
	out = appendStatLine(out, "curr_items", uint64(st.CurrItems))
	out = appendStatLine(out, "bytes", uint64(st.BytesUsed))
	out = appendStatLine(out, "get_hits", st.GetHits)
	out = appendStatLine(out, "get_misses", st.GetMisses)
	out = appendStatLine(out, "cmd_set", st.Sets)
	out = appendStatLine(out, "delete_hits", st.Deletes)
	out = appendStatLine(out, "evictions", st.Evictions)
	out = appendStatLine(out, "expired_unfetched", st.Expirations)
	return append(out, respEnd...)
}

func appendStatLine(out []byte, name string, v uint64) []byte {
	out = append(out, "STAT "...)
	out = append(out, name...)
	out = append(out, ' ')
	out = appendUint(out, v)
	return append(out, '\r', '\n')
}

// appendFields splits line into whitespace-separated fields appended to
// dst, with strings.Fields semantics exactly (runs of unicode.IsSpace
// runes separate fields; invalid UTF-8 bytes are field bytes). The
// returned sub-slices alias line.
func appendFields(dst [][]byte, line []byte) [][]byte {
	i := 0
	for i < len(line) {
		c := line[i]
		if c < utf8.RuneSelf {
			if asciiSpace[c] {
				i++
				continue
			}
		} else {
			r, size := utf8.DecodeRune(line[i:])
			if unicode.IsSpace(r) {
				i += size
				continue
			}
		}
		start := i
		for i < len(line) {
			c := line[i]
			if c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				i++
			} else {
				r, size := utf8.DecodeRune(line[i:])
				if unicode.IsSpace(r) {
					break
				}
				i += size
			}
		}
		dst = append(dst, line[start:i])
	}
	return dst
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseUintField parses an unsigned decimal protocol field with
// strconv.ParseUint(…, 10, bitSize) semantics. The fast path handles
// plain digit runs without allocating; anything unusual falls back to
// strconv so error behavior matches the reference parser bit for bit.
func parseUintField(b []byte, bitSize int) (v uint64, bad bool) {
	if n := len(b); n >= 1 && n <= 19 {
		for _, c := range b {
			if c < '0' || c > '9' {
				goto slow
			}
			v = v*10 + uint64(c-'0')
		}
		if bitSize < 64 && v >= 1<<uint(bitSize) {
			return 0, true
		}
		return v, false
	}
slow:
	u, err := strconv.ParseUint(string(b), 10, bitSize)
	return u, err != nil
}

// atoiField parses a signed decimal protocol field with strconv.Atoi
// semantics; the digit fast path avoids the string conversion.
func atoiField(b []byte) (v int, bad bool) {
	i := 0
	neg := false
	if len(b) > 0 && b[0] == '-' {
		neg = true
		i = 1
	}
	if n := len(b) - i; n >= 1 && n <= 18 {
		for ; i < len(b); i++ {
			c := b[i]
			if c < '0' || c > '9' {
				goto slow
			}
			v = v*10 + int(c-'0')
		}
		if neg {
			v = -v
		}
		return v, false
	}
slow:
	n, err := strconv.Atoi(string(b))
	return n, err != nil
}

// expiry converts a protocol exptime to an absolute engine time. Values
// ≤0 mean "never". Memcached treats values >30 days as absolute Unix
// timestamps; this reproduction's stores use only relative expiries.
func expiry(exptime int, now time.Duration) time.Duration {
	if exptime <= 0 {
		return 0
	}
	return now + time.Duration(exptime)*time.Second
}
