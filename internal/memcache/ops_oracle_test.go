package memcache

import (
	"bytes"
	"testing"
	"time"
)

// The simulated server used to charge by re-scanning every chunk it had
// already handed to Session.Feed; Session.Ops replaced that scan. The
// scanner lives on here as the oracle: on every well-formed transcript
// the two must agree, so the figures calibrated against the old count
// (memcache ops per request, Fig 10/11) cannot have moved.

// countCommands estimates the number of protocol commands in a chunk by
// counting CRLF-terminated command lines that start with a verb. Data
// blocks can contain CRLFs, so this is approximate for binary values, but
// TCPStore values are small fixed-format records without CRLFs.
func countCommands(d []byte) int {
	n := 0
	start := 0
	for i := 0; i+1 < len(d); i++ {
		if d[i] == '\r' && d[i+1] == '\n' {
			line := d[start:i]
			if isCommandLine(line) {
				// A batched mset stores N records: the batch saves round
				// trips, not server work, so it charges N ops.
				if cnt, ok := msetCount(line); ok {
					n += cnt
				} else {
					n++
				}
			}
			start = i + 2
		}
	}
	return n
}

// msetCount parses the record count of an "mset <n>" command line.
func msetCount(line []byte) (int, bool) {
	const p = "mset "
	if len(line) <= len(p) || string(line[:len(p)]) != p {
		return 0, false
	}
	cnt := 0
	for _, c := range line[len(p):] {
		if c < '0' || c > '9' || cnt > 1<<30 {
			return 1, true // malformed count still costs one parse
		}
		cnt = cnt*10 + int(c-'0')
	}
	if cnt <= 0 {
		return 1, true
	}
	return cnt, true
}

func isCommandLine(line []byte) bool {
	for _, v := range []string{"get", "set", "mset", "delete"} {
		if len(line) >= len(v) && string(line[:len(v)]) == v &&
			(len(line) == len(v) || line[len(v)] == ' ') {
			return true
		}
	}
	return false
}

// TestSessionOpsMatchesCommandCount feeds each transcript whole, as one
// received chunk, and compares what the session says it executed with
// what the line scanner counts. Transcripts that draw a protocol error
// are where the two differ by design — the scanner cannot see a malformed
// line — and are pinned separately below.
func TestSessionOpsMatchesCommandCount(t *testing.T) {
	cases := append(differentialCases(),
		[]byte("get k\r\n"),
		[]byte("set k 0 0 5\r\nhello\r\n"),
		[]byte("get a\r\nget b\r\ndelete c\r\n"),
		// The batch saves round trips, not server work: 3 stores + 1 get.
		append(msetWire([]Item{
			{Key: "a", Value: []byte("1")},
			{Key: "b", Value: []byte("2")},
			{Key: "c", Value: []byte("3")},
		}, 0), "get a\r\n"...),
	)
	compared := 0
	for _, in := range cases {
		s := NewSession(NewEngine(0, func() time.Duration { return 0 }))
		resp := s.Feed(in)
		if bytes.Contains(resp, []byte("ERROR")) {
			continue
		}
		compared++
		want := countCommands(in)
		if want == 0 {
			want = 1 // a chunk that drew a reply was charged at least one op
		}
		if got := s.Ops(); got != want {
			t.Errorf("Session.Ops = %d after %q, the line scanner counts %d", got, in, want)
		}
	}
	if compared < 15 {
		t.Fatalf("only %d transcripts compared", compared)
	}
}

// TestSessionOpsIndependentOfChunking: a command is executed by the one
// Feed that completes it, so however TCP cuts a transcript the Ops of its
// Feeds add up to the Ops of feeding it whole. The line scanner did not
// have this property — it charged a chunk for the verb lines in it — and
// that is the one place the server's tally changed on purpose: an mset of
// n records whose tail arrives in a later segment used to cost 1 (the
// completing chunk has no verb line, and a reply was charged at least
// one op) and now costs n; a "get" followed by the head of a "set" used
// to cost 2 and then 1 more for the tail, and now costs 1 and 1. No
// recorded figure moved: with a counter in SimServer, no experiment,
// yodabench workload or end-to-end test delivered a command in two
// segments (TCPStore's batches are a few hundred bytes); only
// TestSimServerQueueingInflatesLatency's 2000 pipelined sets do.
func TestSessionOpsIndependentOfChunking(t *testing.T) {
	newSession := func() *Session { return NewSession(NewEngine(0, func() time.Duration { return 0 })) }
	feedAll := func(in []byte, cuts ...int) int {
		s, ops, at := newSession(), 0, 0
		for _, c := range append(cuts, len(in)) {
			s.Release(s.Feed(in[at:c]))
			ops += s.Ops()
			at = c
		}
		return ops
	}
	for _, in := range differentialCases() {
		whole := feedAll(in)
		for cut := 1; cut < len(in); cut++ {
			if got := feedAll(in, cut); got != whole {
				t.Fatalf("%q cut at %d: %d ops, %d when fed whole", in, cut, got, whole)
			}
		}
		var ones []int
		for i := 1; i < len(in); i++ {
			ones = append(ones, i)
		}
		if got := feedAll(in, ones...); got != whole {
			t.Fatalf("%q byte by byte: %d ops, %d when fed whole", in, got, whole)
		}
	}
	// The case that moved, pinned: 3 records, the last in a second segment.
	mset := msetWire([]Item{
		{Key: "a", Value: []byte("1")},
		{Key: "b", Value: []byte("2")},
		{Key: "c", Value: []byte("3")},
	}, 0)
	cut := len(mset) - 4
	s := newSession()
	s.Release(s.Feed(mset[:cut]))
	if s.Ops() != 0 {
		t.Fatalf("an incomplete mset executed %d ops", s.Ops())
	}
	s.Release(s.Feed(mset[cut:]))
	if s.Ops() != 3 || countCommands(mset[cut:]) != 0 {
		t.Fatalf("completing chunk: Session.Ops = %d (want 3), line scanner %d (want 0, charged as 1)", s.Ops(), countCommands(mset[cut:]))
	}
}

// TestSessionOpsOnMalformedInput: every consumed line is one operation,
// whatever it was; a rejected mset is one, not its announced count; a
// Feed that completes nothing executed nothing.
func TestSessionOpsOnMalformedInput(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
	}{
		{"bogus\r\n\r\n  \r\nget\r\n", 4},
		{"mset 9999\r\n", 1},
		{"mset 2\r\na 1 0 1\r\nx\r\nb 2 0 bad\r\ny\r\n", 2}, // the bad record, then its orphaned data line
		{"quit\r\nset k 0 0 1\r\na\r\n", 2},                 // an unknown command, then the set
		{"set k 0 0 5\r\nhel", 0},
		{"", 0},
	} {
		s := NewSession(NewEngine(0, func() time.Duration { return 0 }))
		s.Release(s.Feed([]byte(c.in)))
		if got := s.Ops(); got != c.want {
			t.Errorf("Session.Ops = %d after %q, want %d", got, c.in, c.want)
		}
	}
}
