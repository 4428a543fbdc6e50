package memcache

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineSetGetDelete(t *testing.T) {
	e := NewEngine(0, nil)
	e.Set(Item{Key: "k", Value: []byte("v"), Flags: 7})
	it, ok := e.Get("k")
	if !ok || string(it.Value) != "v" || it.Flags != 7 {
		t.Fatalf("get: %+v %v", it, ok)
	}
	if !e.Delete("k") {
		t.Fatal("delete should report present")
	}
	if _, ok := e.Get("k"); ok {
		t.Fatal("get after delete")
	}
	if e.Delete("k") {
		t.Fatal("double delete should report absent")
	}
}

func TestEngineGetReturnsCopy(t *testing.T) {
	e := NewEngine(0, nil)
	e.Set(Item{Key: "k", Value: []byte("abc")})
	it, _ := e.Get("k")
	it.Value[0] = 'z'
	it2, _ := e.Get("k")
	if string(it2.Value) != "abc" {
		t.Fatal("engine storage aliased to caller slice")
	}
}

func TestEngineExpiry(t *testing.T) {
	var clock time.Duration
	e := NewEngine(0, func() time.Duration { return clock })
	e.Set(Item{Key: "k", Value: []byte("v"), Expires: 10 * time.Second})
	if _, ok := e.Get("k"); !ok {
		t.Fatal("not yet expired")
	}
	clock = 11 * time.Second
	if _, ok := e.Get("k"); ok {
		t.Fatal("should have expired")
	}
	st := e.Stats()
	if st.Expirations != 1 {
		t.Fatalf("expirations = %d", st.Expirations)
	}
}

func TestEngineLRUEviction(t *testing.T) {
	// Each item is 64 + len(key) + len(value) bytes; cap to ~4 items.
	e := NewEngine(4*(64+2+10), nil)
	for i := 0; i < 8; i++ {
		e.Set(Item{Key: fmt.Sprintf("k%d", i), Value: bytes.Repeat([]byte("x"), 10)})
	}
	st := e.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under memory pressure")
	}
	if st.CurrItems > 4 {
		t.Fatalf("items = %d, above cap", st.CurrItems)
	}
	// Most recently set keys must survive.
	if _, ok := e.Get("k7"); !ok {
		t.Fatal("most recent key evicted")
	}
	if _, ok := e.Get("k0"); ok {
		t.Fatal("oldest key survived")
	}
}

func TestEngineLRUTouchOnGet(t *testing.T) {
	e := NewEngine(3*(64+2+1), nil)
	e.Set(Item{Key: "k0", Value: []byte("a")})
	e.Set(Item{Key: "k1", Value: []byte("b")})
	e.Set(Item{Key: "k2", Value: []byte("c")})
	e.Get("k0") // refresh k0; k1 becomes LRU
	e.Set(Item{Key: "k3", Value: []byte("d")})
	if _, ok := e.Get("k0"); !ok {
		t.Fatal("recently read key evicted")
	}
	if _, ok := e.Get("k1"); ok {
		t.Fatal("LRU key survived")
	}
}

func TestEngineStatsCounters(t *testing.T) {
	e := NewEngine(0, nil)
	e.Set(Item{Key: "a", Value: []byte("1")})
	e.Get("a")
	e.Get("missing")
	e.Delete("a")
	st := e.Stats()
	if st.Sets != 1 || st.GetHits != 1 || st.GetMisses != 1 || st.Deletes != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// --- protocol session tests ---

func feed(t *testing.T, s *Session, in string) string {
	t.Helper()
	return string(s.Feed([]byte(in)))
}

func TestSessionSetGet(t *testing.T) {
	s := NewSession(NewEngine(0, nil))
	out := feed(t, s, "set foo 42 0 5\r\nhello\r\n")
	if out != "STORED\r\n" {
		t.Fatalf("set reply: %q", out)
	}
	out = feed(t, s, "get foo\r\n")
	if out != "VALUE foo 42 5\r\nhello\r\nEND\r\n" {
		t.Fatalf("get reply: %q", out)
	}
	out = feed(t, s, "get nope\r\n")
	if out != "END\r\n" {
		t.Fatalf("miss reply: %q", out)
	}
}

func TestSessionMultiGet(t *testing.T) {
	s := NewSession(NewEngine(0, nil))
	feed(t, s, "set a 0 0 1\r\nA\r\nset b 0 0 1\r\nB\r\n")
	out := feed(t, s, "get a b c\r\n")
	want := "VALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nB\r\nEND\r\n"
	if out != want {
		t.Fatalf("multiget: %q", out)
	}
}

func TestSessionDelete(t *testing.T) {
	s := NewSession(NewEngine(0, nil))
	feed(t, s, "set a 0 0 1\r\nA\r\n")
	if out := feed(t, s, "delete a\r\n"); out != "DELETED\r\n" {
		t.Fatalf("delete: %q", out)
	}
	if out := feed(t, s, "delete a\r\n"); out != "NOT_FOUND\r\n" {
		t.Fatalf("redelete: %q", out)
	}
}

func TestSessionIncrementalInput(t *testing.T) {
	s := NewSession(NewEngine(0, nil))
	wire := "set foo 0 0 5\r\nhello\r\nget foo\r\n"
	var out bytes.Buffer
	for i := 0; i < len(wire); i++ {
		out.WriteString(feed(t, s, wire[i:i+1]))
	}
	if got := out.String(); got != "STORED\r\nVALUE foo 0 5\r\nhello\r\nEND\r\n" {
		t.Fatalf("incremental: %q", got)
	}
}

func TestSessionDataWithCRLF(t *testing.T) {
	// Values containing CRLF must be framed by length, not by line.
	s := NewSession(NewEngine(0, nil))
	val := "line1\r\nline2"
	out := feed(t, s, fmt.Sprintf("set k 0 0 %d\r\n%s\r\n", len(val), val))
	if out != "STORED\r\n" {
		t.Fatalf("set: %q", out)
	}
	out = feed(t, s, "get k\r\n")
	if !strings.Contains(out, val) {
		t.Fatalf("get: %q", out)
	}
}

func TestSessionErrors(t *testing.T) {
	s := NewSession(NewEngine(0, nil))
	if out := feed(t, s, "bogus\r\n"); out != "ERROR\r\n" {
		t.Fatalf("unknown cmd: %q", out)
	}
	if out := feed(t, s, "set k bad 0 1\r\n"); !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Fatalf("bad flags: %q", out)
	}
	if out := feed(t, s, "delete\r\n"); !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Fatalf("missing key: %q", out)
	}
}

// TestSessionRetiredVerbs: the 13 verbs the store client never sends are
// unknown commands. Each draws one ERROR per line (a data block that
// follows is just another line), touches nothing in the engine, and
// leaves the stream in sync for the commands after it.
func TestSessionRetiredVerbs(t *testing.T) {
	pre, post, mids := retiredVerbTranscripts()
	if len(retiredVerbLines) != 13 {
		t.Fatalf("%d retired verbs listed, want 13", len(retiredVerbLines))
	}
	for _, mid := range mids {
		e := NewEngine(0, func() time.Duration { return 0 })
		s := NewSession(e)
		if out := feed(t, s, pre); out != "STORED\r\n" {
			t.Fatalf("setup: %q", out)
		}
		before := e.Stats()
		lines := strings.Count(mid, "\r\n")
		if out := feed(t, s, mid); out != strings.Repeat("ERROR\r\n", lines) {
			t.Errorf("%q: reply %q, want %d × ERROR", mid, out, lines)
		}
		if s.Ops() != lines {
			t.Errorf("%q: %d ops, want one per line (%d)", mid, s.Ops(), lines)
		}
		if after := e.Stats(); after != before {
			t.Errorf("%q changed the engine: %+v -> %+v", mid, before, after)
		}
		if out := feed(t, s, post); out != "STORED\r\nVALUE j 0 2\r\nok\r\nVALUE k 0 1\r\n5\r\nEND\r\n" {
			t.Errorf("after %q the stream is out of sync: %q", mid, out)
		}
	}
}

// --- reply parser tests ---

// feedReplies feeds data to p and collects the completed replies.
func feedReplies(p *ReplyParser, data []byte) []Reply {
	var out []Reply
	p.FeedFunc(data, func(r Reply) { out = append(out, r) })
	return out
}

func TestReplyParserSingleLine(t *testing.T) {
	p := &ReplyParser{}
	p.Expect(false)
	rs := feedReplies(p, []byte("STORED\r\n"))
	if len(rs) != 1 || rs[0].Type != ReplyStored {
		t.Fatalf("replies: %+v", rs)
	}
}

func TestReplyParserValues(t *testing.T) {
	p := &ReplyParser{}
	p.Expect(true)
	rs := feedReplies(p, []byte("VALUE k 7 5\r\nhello\r\nEND\r\n"))
	if len(rs) != 1 || rs[0].Type != ReplyValues {
		t.Fatalf("replies: %+v", rs)
	}
	it := rs[0].Items[0]
	if it.Key != "k" || it.Flags != 7 || string(it.Value) != "hello" {
		t.Fatalf("item: %+v", it)
	}
}

func TestReplyParserSplitAcrossFeeds(t *testing.T) {
	p := &ReplyParser{}
	p.Expect(true)
	wire := "VALUE k 0 10\r\n0123456789\r\nEND\r\n"
	var got []Reply
	for i := 0; i < len(wire); i += 3 {
		end := i + 3
		if end > len(wire) {
			end = len(wire)
		}
		got = append(got, feedReplies(p, []byte(wire[i:end]))...)
	}
	if len(got) != 1 || string(got[0].Items[0].Value) != "0123456789" {
		t.Fatalf("got: %+v", got)
	}
}

func TestReplyParserPipelined(t *testing.T) {
	p := &ReplyParser{}
	p.Expect(false)
	p.Expect(true)
	p.Expect(false)
	rs := feedReplies(p, []byte("STORED\r\nVALUE a 0 1\r\nA\r\nEND\r\nDELETED\r\n"))
	if len(rs) != 3 {
		t.Fatalf("replies = %d", len(rs))
	}
	if rs[0].Type != ReplyStored || rs[1].Type != ReplyValues || rs[2].Type != ReplyDeleted {
		t.Fatalf("types: %v %v %v", rs[0].Type, rs[1].Type, rs[2].Type)
	}
	if pending := len(p.multi) - p.mhead; pending != 0 {
		t.Fatalf("pending = %d", pending)
	}
}

// TestReplyParserErrorDropsPartialItems: a get reply that goes wrong
// after some VALUE blocks ends as one error, and the items it had
// collected do not surface in the next get's reply.
func TestReplyParserErrorDropsPartialItems(t *testing.T) {
	for _, bad := range []string{"VALUE short\r\n", "VALUE b 0 x\r\n", "SERVER_ERROR\r\n"} {
		p := &ReplyParser{}
		p.Expect(true)
		p.Expect(true)
		rs := feedReplies(p, []byte("VALUE a 0 1\r\nA\r\n"+bad+"VALUE c 0 1\r\nC\r\nEND\r\n"))
		if len(rs) != 2 || rs[0].Type != ReplyError || rs[1].Type != ReplyValues {
			t.Fatalf("%q: replies %+v", bad, rs)
		}
		if len(rs[0].Items) != 0 || len(rs[1].Items) != 1 || rs[1].Items[0].Key != "c" {
			t.Fatalf("%q: items leaked across replies: %+v", bad, rs)
		}
	}
}

func TestProtocolRoundTripProperty(t *testing.T) {
	// Any key/value we store through the protocol must come back intact,
	// provided the value has no CRLF-parsing hazards (values are
	// length-framed so CRLF inside is fine; keys must be token-safe).
	f := func(val []byte) bool {
		s := NewSession(NewEngine(0, nil))
		cmd := fmt.Sprintf("set k 0 0 %d\r\n", len(val))
		s.Feed([]byte(cmd))
		s.Feed(val)
		out := s.Feed([]byte("\r\nget k\r\n"))
		p := &ReplyParser{}
		p.Expect(false)
		p.Expect(true)
		rs := feedReplies(p, out)
		if len(rs) != 2 || rs[0].Type != ReplyStored || rs[1].Type != ReplyValues {
			return false
		}
		return len(rs[1].Items) == 1 && bytes.Equal(rs[1].Items[0].Value, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
