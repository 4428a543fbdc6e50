package memcache

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// This file pins the zero-copy Session in proto.go against the preserved
// pre-optimization parser in proto_reference.go: the same byte stream,
// fed through both under identical clocks, must produce byte-identical
// responses AND byte-identical engine state (items, values, LRU order,
// accounting, stats). FuzzMemcacheSessionDifferential extends the
// fixed cases to arbitrary inputs and arbitrary feed chunking.

// engineFingerprint renders every piece of engine state the protocol can
// observe or influence, in LRU order, for differential comparison.
func engineFingerprint(e *Engine) string {
	var b strings.Builder
	for n := e.head; n != nil; n = n.next {
		fmt.Fprintf(&b, "%q f=%d exp=%d v=%q\n", n.key, n.flags, n.expires, n.value)
	}
	fmt.Fprintf(&b, "used=%d stats=%+v\n", e.used, e.stats)
	return b.String()
}

// feedBoth runs one byte stream through both parsers — the new Session in
// the given chunking, the reference in a single feed (the reference
// buffers identically regardless of chunking) — and returns the two
// concatenated response streams and engine fingerprints.
func feedBoth(input []byte, chunks []int) (newResp, refResp []byte, newFP, refFP string) {
	clock := func() time.Duration { return 0 }

	eNew := NewEngine(0, clock)
	sNew := NewSession(eNew)
	var outNew bytes.Buffer
	rest := input
	for _, c := range chunks {
		if c > len(rest) {
			c = len(rest)
		}
		resp := sNew.Feed(rest[:c])
		outNew.Write(resp)
		sNew.Release(resp)
		rest = rest[c:]
	}
	if len(rest) > 0 {
		resp := sNew.Feed(rest)
		outNew.Write(resp)
		sNew.Release(resp)
	}

	eRef := NewEngine(0, clock)
	sRef := NewReferenceSession(eRef)
	refOut := sRef.Feed(input)

	return outNew.Bytes(), refOut, engineFingerprint(eNew), engineFingerprint(eRef)
}

func checkDifferential(t *testing.T, input []byte, chunks []int) {
	t.Helper()
	newResp, refResp, newFP, refFP := feedBoth(input, chunks)
	if !bytes.Equal(newResp, refResp) {
		t.Fatalf("responses diverge for %q (chunks %v):\n new: %q\n ref: %q",
			input, chunks, newResp, refResp)
	}
	if newFP != refFP {
		t.Fatalf("engine state diverges for %q (chunks %v):\n new:\n%s ref:\n%s",
			input, chunks, newFP, refFP)
	}
}

// differentialCases covers the four verbs, the error paths whose exact
// bytes and consumption semantics matter, and the protocol oddities the
// reference parser exhibits (strings.Fields splitting, data blocks
// re-parsed after storage errors, mset all-or-nothing).
func differentialCases() [][]byte {
	return [][]byte{
		[]byte("set k 1 0 3\r\nabc\r\nget k\r\n"),
		// Overwrite in place: shorter value, new flags, then a longer one.
		[]byte("set k 0 0 3\r\nabc\r\nset k 5 0 1\r\nz\r\nget k\r\nset k 0 0 4\r\nwxyz\r\nget k k\r\n"),
		[]byte("delete k\r\nset k 0 0 1\r\na\r\ndelete k\r\nget k\r\n"),
		[]byte("delete\r\ndelete k extra\r\n"),
		[]byte("mset 2\r\na 1 0 1\r\nx\r\nb 2 0 1\r\ny\r\nget a b\r\n"),
		[]byte("mset 2\r\na 0 0 1\r\nx\r\na 7 0 2\r\nyy\r\nget a\r\ndelete a\r\nget a\r\n"),
		[]byte("mset 0\r\nmset -1\r\nmset abc\r\nmset\r\n"),
		[]byte("mset 2\r\na 1 0 1\r\nx\r\nb 2 0 bad\r\ny\r\n"),
		[]byte("mset 1\r\na 1 0\r\nx\r\n"),
		[]byte("mset 9999\r\na 1 0 1\r\nx\r\n"),
		[]byte("set k 0 0 bad\r\nget k\r\n"),
		[]byte("set k 0 0 -1\r\n"),
		[]byte("set k 4294967296 0 1\r\na\r\n"),
		[]byte("set k 0 0 8388609\r\n"),
		[]byte("set toolongkey" + strings.Repeat("k", 250) + " 0 0 1\r\na\r\n"),
		[]byte("set k 0 0\r\n"),
		[]byte("bogus\r\n\r\n  \r\nget\r\n"),
		// Arguments past the byte count are ignored ("noreply" included:
		// the reply is sent).
		[]byte("set k 0 0 1 noreply\r\na\r\nget k\r\n"),
		[]byte("set a 0 0 1\r\nx\r\nset b 0 0 1\r\ny\r\nget a\r\nset c 0 0 1\r\nz\r\nget b a c\r\n"),
		// Fields splitting oddities: tabs, multiple spaces, vertical tab.
		[]byte("set\tk 0 0 1\r\na\r\n"),
		[]byte("set  k  0  0  1\r\na\r\n"),
		[]byte("get k\x0bm\r\n"),
		// Expiry interpretation: ≤ 0 never, relative otherwise (§expiry).
		[]byte("set k 0 1 1\r\na\r\nset j 0 2592001 1\r\nb\r\nset i 0 -5 1\r\nc\r\nget k j i\r\n"),
		sessionWorkload(),
	}
}

// retiredVerbLines is one well-formed command line for each of the 13
// verbs the session no longer speaks.
var retiredVerbLines = []string{
	"add k 0 0 1", "replace k 0 0 1", "cas k 0 0 1 1", "append k 0 0 1", "prepend k 0 0 1",
	"incr k 5", "decr k 5", "gets k", "touch k 100", "flush_all", "stats", "version", "quit",
}

// retiredVerbTranscripts wraps each retired line, alone and followed by a
// one-byte data block, between a set that gives it something to act on
// and a set/get pair that shows the stream is still in sync.
func retiredVerbTranscripts() (pre, post string, mids []string) {
	for _, line := range retiredVerbLines {
		mids = append(mids, line+"\r\n", line+"\r\n7\r\n")
	}
	return "set k 0 0 1\r\n5\r\n", "set j 0 0 2\r\nok\r\nget j k\r\n", mids
}

func TestSessionDifferential(t *testing.T) {
	for _, in := range differentialCases() {
		checkDifferential(t, in, nil)
	}
}

// TestSessionDifferentialChunked re-feeds every case one byte at a time
// and in ragged chunks, exercising partial command lines and split data
// blocks in the incremental parser.
func TestSessionDifferentialChunked(t *testing.T) {
	for _, in := range differentialCases() {
		ones := make([]int, len(in))
		for i := range ones {
			ones[i] = 1
		}
		checkDifferential(t, in, ones)
		checkDifferential(t, in, []int{3, 1, 7, 2, 11, 5})
	}
}

// FuzzMemcacheSessionDifferential feeds arbitrary byte streams — split
// into arbitrary chunkings — through both parsers and requires identical
// responses and identical engine state.
func FuzzMemcacheSessionDifferential(f *testing.F) {
	for _, in := range differentialCases() {
		f.Add(in, uint8(0))
		f.Add(in, uint8(3))
	}
	f.Add([]byte("set k 0 0 5\r\nab\r\nc\r\nget k\r\n"), uint8(1))
	f.Add([]byte("mset 2\r\na 0 0 1\r\nx\r\n"), uint8(2))
	pre, post, mids := retiredVerbTranscripts()
	for _, mid := range mids {
		f.Add([]byte(pre+mid+post), uint8(5))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		if len(data) > 1<<16 {
			return // keep value sizes and runtime bounded
		}
		var chunks []int
		if split > 0 {
			for rest := len(data); rest > 0; rest -= int(split) {
				chunks = append(chunks, int(split))
			}
		}
		newResp, refResp, newFP, refFP := feedBoth(data, chunks)
		if !bytes.Equal(newResp, refResp) {
			t.Fatalf("responses diverge (split=%d):\n new: %q\n ref: %q", split, newResp, refResp)
		}
		if newFP != refFP {
			t.Fatalf("engine state diverges (split=%d):\n new:\n%s ref:\n%s", split, newFP, refFP)
		}
	})
}

// TestResponseNotAliasedToEngine locks in the copy boundary between the
// engine's stored values and protocol responses: bytes handed to the
// transport must stay stable even when later commands overwrite the
// stored value in place (a set reuses the node's buffer). A regression
// here would corrupt queued replies under pipelining.
func TestResponseNotAliasedToEngine(t *testing.T) {
	e := NewEngine(0, func() time.Duration { return 0 })
	s := NewSession(e)

	resp := s.Feed([]byte("set k 0 0 3\r\n100\r\n"))
	if string(resp) != "STORED\r\n" {
		t.Fatalf("set: %q", resp)
	}
	s.Release(resp)

	got := s.Feed([]byte("get k\r\n"))
	held := string(got) // snapshot before any mutation

	// Overwrite the stored value through both write paths on a second
	// session (the engine is shared across connections), then remove it
	// and let another key recycle the node.
	s2 := NewSession(e)
	for _, cmd := range []string{
		"set k 0 0 3\r\nxyz\r\n",
		"mset 2\r\nk 0 0 2\r\nab\r\nk 0 0 3\r\ncde\r\n",
		"delete k\r\n",
		"set j 0 0 3\r\n999\r\n",
	} {
		r := s2.Feed([]byte(cmd))
		s2.Release(r)
	}

	if string(got) != held {
		t.Fatalf("held response mutated by later commands:\n held: %q\n  now: %q", held, got)
	}
	if held != "VALUE k 0 3\r\n100\r\nEND\r\n" {
		t.Fatalf("unexpected get response: %q", held)
	}
	s.Release(got)
}
