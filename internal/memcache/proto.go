package memcache

import (
	"bytes"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"
)

// Session is the protocol endpoint of one client connection: feed it the
// bytes received and it produces response bytes against an Engine. It
// answers the four verbs the store client sends — set, mset, get, delete —
// and ERROR for any other command line.
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
	// Tokenizer scratch: fields of the current command or mset record
	// line, recs for mset's parse-then-apply two-pass.
	fields [][]byte
	recs   []msetRec
	// pool holds response buffers handed back via Release, ready for the
	// next Feed.
	pool [][]byte
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
	respStored        = "STORED\r\n"
	respNotFound      = "NOT_FOUND\r\n"
	respDeleted       = "DELETED\r\n"
	respEnd           = "END\r\n"
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
	for {
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
	switch string(s.fields[0]) {
	case "set":
		return s.setCommand(out, raw, nl)
	case "mset":
		return s.msetCommand(out, raw, nl)
	case "get":
		s.head += nl + 2
		for _, key := range s.fields[1:] {
			out = appendValue(out, s.engine.getBytes(key))
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
	default:
		s.head += nl + 2
		return append(out, respError...), true
	}
}

// appendValue frames a get hit,
//
//	VALUE <key> <flags> <bytes>\r\n<data>\r\n
//
// onto out from the chunk's key, flags and value; a miss (nil) appends
// nothing. Copying the stored value here is what keeps a response the
// transport still holds from aliasing a slab chunk that a later set
// overwrites in place.
func appendValue(out []byte, c chunk) []byte {
	if c == nil {
		return out
	}
	value := c.value()
	out = append(out, "VALUE "...)
	out = append(out, c.key()...)
	out = append(out, ' ')
	out = strconv.AppendUint(out, uint64(c.flags()), 10)
	out = append(out, ' ')
	out = strconv.AppendUint(out, uint64(len(value)), 10)
	out = append(out, '\r', '\n')
	out = append(out, value...)
	return append(out, '\r', '\n')
}

// Input bounds: the longest key and value a record may carry, and the
// record count of one mset command, so a corrupt count cannot make the
// session buffer unboundedly.
const (
	maxKeyLen       = 250
	maxValueLen     = 8 << 20
	MaxBatchRecords = 1024
)

// recordHeader validates the "<key> <flags> <exptime> <bytes>" fields that
// a set command line and an mset record line share.
func recordHeader(f [][]byte) (flags uint32, exptime, size int, ok bool) {
	fl, err1 := parseUintField(f[1], 32)
	exptime, err2 := atoiField(f[2])
	size, err3 := atoiField(f[3])
	ok = !err1 && !err2 && !err3 && size >= 0 && size <= maxValueLen && len(f[0]) <= maxKeyLen
	return uint32(fl), exptime, size, ok
}

// setCommand handles
//
//	set <key> <flags> <exptime> <bytes>\r\n<data>\r\n
func (s *Session) setCommand(out []byte, raw []byte, nl int) ([]byte, bool) {
	args := s.fields[1:]
	if len(args) < 4 {
		s.head += nl + 2
		return append(out, respBadCmdLine...), true
	}
	flags, exptime, size, ok := recordHeader(args)
	if !ok {
		s.head += nl + 2
		return append(out, respBadDataChunk...), true
	}
	// Need the full data block plus trailing CRLF.
	need := nl + 2 + size + 2
	if len(raw) < need {
		return out, false
	}
	s.head += need
	s.engine.setBytes(args[0], raw[nl+2:nl+2+size], flags, expiry(exptime, s.engine.now()))
	return append(out, respStored...), true
}

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
	if len(s.fields) < 2 {
		s.head += nl + 2
		return append(out, respBadCmdLine...), true
	}
	n, err := atoiField(s.fields[1])
	if err || n <= 0 || n > MaxBatchRecords {
		s.head += nl + 2
		return append(out, respBadRecCount...), true
	}
	s.recs = s.recs[:0]
	pos := nl + 2
	for i := 0; i < n; i++ {
		rest := raw[pos:]
		rnl := bytes.Index(rest, []byte("\r\n"))
		if rnl < 0 {
			return out, false // record header still arriving
		}
		rf := appendFields(s.fields[:0], rest[:rnl])
		s.fields = rf
		if len(rf) != 4 {
			s.head += pos + rnl + 2
			return append(out, respBadRecordLine...), true
		}
		flags, exptime, size, ok := recordHeader(rf)
		if !ok {
			s.head += pos + rnl + 2
			return append(out, respBadDataChunk...), true
		}
		need := pos + rnl + 2 + size + 2
		if len(raw) < need {
			return out, false // data block still arriving
		}
		s.recs = append(s.recs, msetRec{
			key:     rf[0],
			val:     rest[rnl+2 : rnl+2+size],
			flags:   flags,
			expires: expiry(exptime, s.engine.now()),
		})
		pos = need
	}
	s.head += pos
	for _, r := range s.recs {
		s.engine.setBytes(r.key, r.val, r.flags, r.expires)
	}
	s.ops += n - 1 // Feed counts the command itself
	out = append(out, "MSTORED "...)
	out = strconv.AppendUint(out, uint64(n), 10)
	return append(out, '\r', '\n'), true
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
