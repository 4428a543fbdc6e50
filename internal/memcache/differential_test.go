package memcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// This file pins the zero-copy Session in proto.go, on the slab Engine,
// against the preserved pre-optimization parser in
// proto_reference_test.go, on the map + intrusive-node engine in
// engine_reference_test.go: the same byte stream, fed through both stacks
// under identical clocks, must produce byte-identical responses AND
// byte-identical engine state (items, values, LRU order, accounting,
// stats). FuzzMemcacheSessionDifferential extends the fixed cases to
// arbitrary inputs and arbitrary feed chunking.

// engineFingerprint renders every piece of engine state the protocol can
// observe or influence, in LRU order, for differential comparison.
func engineFingerprint(e *Engine) string {
	var b strings.Builder
	for r := e.head; r != 0; r = e.next(r) {
		c := e.chunk(r)
		fmt.Fprintf(&b, "%q f=%d exp=%d v=%q\n", c.key(), c.flags(), c.expires(), c.value())
	}
	fmt.Fprintf(&b, "used=%d stats=%+v\n", e.used, e.Stats())
	return b.String()
}

// refFingerprint renders the reference engine's state in the same form.
func refFingerprint(e *refEngine) string {
	var b strings.Builder
	for n := e.head; n != nil; n = n.next {
		fmt.Fprintf(&b, "%q f=%d exp=%d v=%q\n", n.key, n.flags, n.expires, n.value)
	}
	fmt.Fprintf(&b, "used=%d stats=%+v\n", e.used, e.Stats())
	return b.String()
}

// feedBoth runs one byte stream through both stacks — the new Session in
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

	eRef := newRefEngine(0, clock)
	sRef := NewReferenceSession(eRef)
	refOut := sRef.Feed(input)

	return outNew.Bytes(), refOut, engineFingerprint(eNew), refFingerprint(eRef)
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
	f.Add(stormInput(), uint8(0))
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

// stormInput fills one size class over several pages with mset, deletes
// nine keys in ten so the class repacks, and reads the rest back.
func stormInput() []byte {
	var b bytes.Buffer
	const n = 1200
	for i := 0; i < n; i += 100 {
		b.WriteString("mset 100\r\n")
		for j := i; j < i+100; j++ {
			fmt.Fprintf(&b, "yoda:f:%08x 0 0 51\r\n%051d\r\n", j, j)
		}
	}
	for i := 0; i < n; i++ {
		if i%10 != 3 {
			fmt.Fprintf(&b, "delete yoda:f:%08x\r\n", (i*7)%n)
		}
	}
	for i := 0; i < n; i += 10 {
		fmt.Fprintf(&b, "get yoda:f:%08x\r\nset yoda:f:%08x 0 0 3\r\nabc\r\n", i, i+1)
	}
	return b.Bytes()
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

// TestEngineDifferential holds the slab Engine to the map + intrusive-node
// reference engine, one seeded random operation at a time: sets, gets and
// deletes through both the string and the byte entry points, values that
// straddle every size-class boundary and the own-array threshold, expiries
// on a fake clock, and byte caps that force eviction. After every
// operation the two must agree on the return value, the stats and the
// whole LRU list (so on every evicted key).
func TestEngineDifferential(t *testing.T) {
	// Chunk sizes one under, at and one over each class boundary, and own
	// arrays that grow and shrink in place or move.
	var sizes []int
	for _, s := range classSize {
		sizes = append(sizes, int(s)-1, int(s), int(s)+1)
	}
	big := []int{maxChunk + 1, maxChunk + 2, maxPage, 3 * maxPage}
	var total Stats
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var clock time.Duration
		now := func() time.Duration { return clock }
		maxBytes := []int{0, 2 << 10, 40 << 10, 400 << 10}[seed%4]
		e, ref := NewEngine(maxBytes, now), newRefEngine(maxBytes, now)
		keys := make([][]byte, 24)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("k%d:%s", i, strings.Repeat("x", rng.Intn(3)*rng.Intn(maxKeyLen/2-4))))
		}
		value := func(key []byte) []byte {
			var n int
			switch rng.Intn(6) {
			case 0, 1:
				n = rng.Intn(64)
			case 2:
				n = big[rng.Intn(len(big))] - hdrSize - len(key)
			default:
				n = sizes[rng.Intn(len(sizes))] - hdrSize - len(key)
			}
			v := make([]byte, max(n, 0))
			rng.Read(v)
			return v
		}
		for op := 0; op < 3000; op++ {
			key := keys[rng.Intn(len(keys))]
			var got, want string
			switch k := rng.Intn(10); {
			case k < 4:
				v, flags := value(key), rng.Uint32()
				var exp time.Duration
				if rng.Intn(3) == 0 {
					exp = clock + time.Duration(1+rng.Intn(5))*time.Second
				}
				if k == 0 {
					e.Set(Item{Key: string(key), Value: v, Flags: flags, Expires: exp})
				} else {
					e.setBytes(key, v, flags, exp)
				}
				ref.setBytes(key, v, flags, exp)
			case k < 7:
				if k == 4 {
					it, ok := e.Get(string(key))
					got = fmt.Sprintf("%v %q %d %d", ok, it.Value, it.Flags, it.Expires)
					it, ok = ref.Get(string(key))
					want = fmt.Sprintf("%v %q %d %d", ok, it.Value, it.Flags, it.Expires)
				} else {
					got = string(appendValue(nil, e.getBytes(key)))
					want = string(appendValue(nil, refChunk(ref.getBytes(key))))
				}
			case k < 9:
				got = fmt.Sprint(e.deleteBytes(key))
				want = fmt.Sprint(ref.deleteBytes(key))
			default:
				clock += time.Duration(rng.Intn(1500)) * time.Millisecond
			}
			if got != want {
				t.Fatalf("seed %d op %d on %q: got %s, reference %s", seed, op, key, got, want)
			}
			if g, w := e.Stats(), ref.Stats(); g != w {
				t.Fatalf("seed %d op %d: stats %+v, reference %+v", seed, op, g, w)
			}
			if err := sameLRU(e, ref); err != "" {
				t.Fatalf("seed %d op %d: %s", seed, op, err)
			}
		}
		st := e.Stats()
		total.Evictions += st.Evictions
		total.Expirations += st.Expirations
		total.Deletes += st.Deletes
		total.GetHits += st.GetHits
	}
	if total.Evictions == 0 || total.Expirations == 0 || total.Deletes == 0 || total.GetHits == 0 {
		t.Fatalf("the operations missed a path: %+v", total)
	}
	t.Run("storm", testEngineStormDifferential)
}

// testEngineStormDifferential is a failover storm's shape: one class
// filled over several pages, 90 % of it deleted in random order (so its
// newest pages repack into the ones it keeps), then sets, gets and
// overwrites that move items into another class and back, all held to
// the reference engine, whole LRU included, after every operation.
func testEngineStormDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var clock time.Duration
		now := func() time.Duration { return clock }
		e, ref := NewEngine(0, now), newRefEngine(0, now)
		check := func(op string) {
			t.Helper()
			if g, w := e.Stats(), ref.Stats(); g != w {
				t.Fatalf("seed %d %s: stats %+v, reference %+v", seed, op, g, w)
			}
			if err := sameLRU(e, ref); err != "" {
				t.Fatalf("seed %d %s: %s", seed, op, err)
			}
		}
		const n = 3000
		key := func(i int) []byte { return []byte(fmt.Sprintf("yoda:f:%08x", i)) }
		value := func(size int) []byte {
			v := make([]byte, size)
			rng.Read(v)
			return v
		}
		for i := 0; i < n; i++ {
			k, v := key(i), value(51)
			e.setBytes(k, v, uint32(i), 0)
			ref.setBytes(k, v, uint32(i), 0)
			check(fmt.Sprintf("fill %d", i))
		}
		c := classFor(hdrSize + len(key(0)) + 51)
		pages := 0
		for p := e.classes[c].page; p != 0; p = e.below[p] {
			pages++
		}
		if pages < 6 {
			t.Fatalf("seed %d: the fill took %d pages, want several", seed, pages)
		}
		peak := pageBytes(e)
		order := rng.Perm(n)
		for _, i := range order[:n*9/10] {
			got, want := e.deleteBytes(key(i)), ref.deleteBytes(key(i))
			if got != want {
				t.Fatalf("seed %d delete %d: got %v, reference %v", seed, i, got, want)
			}
			check(fmt.Sprintf("delete %d", i))
		}
		if after := pageBytes(e); after >= peak/2 {
			t.Fatalf("seed %d: pages hold %d B after the deletes, %d B at the peak", seed, after, peak)
		}
		for op := 0; op < 4000; op++ {
			i := order[rng.Intn(n)]
			k := key(i)
			var got, want string
			switch rng.Intn(4) {
			case 0, 1:
				size := 51
				if rng.Intn(2) == 0 {
					size = 200 + rng.Intn(100)
				}
				v := value(size)
				e.setBytes(k, v, uint32(op), 0)
				ref.setBytes(k, v, uint32(op), 0)
			case 2:
				got = string(appendValue(nil, e.getBytes(k)))
				want = string(appendValue(nil, refChunk(ref.getBytes(k))))
			default:
				got, want = fmt.Sprint(e.deleteBytes(k)), fmt.Sprint(ref.deleteBytes(k))
			}
			if got != want {
				t.Fatalf("seed %d op %d on %q: got %s, reference %s", seed, op, k, got, want)
			}
			check(fmt.Sprintf("op %d", op))
		}
	}
}

// pageBytes is what e's slab classes hold in pages.
func pageBytes(e *Engine) int {
	n := 0
	for _, cl := range e.classes {
		n += int(cl.bytes)
	}
	return n
}

// sameLRU walks both engines' LRU lists from the most recently used end
// and reports the first item that differs ("" when none does).
func sameLRU(e *Engine, ref *refEngine) string {
	r, n := e.head, ref.head
	for i := 0; r != 0 && n != nil; i++ {
		c := e.chunk(r)
		if string(c.key()) != n.key || c.flags() != n.flags || c.expires() != n.expires || !bytes.Equal(c.value(), n.value) {
			return fmt.Sprintf("LRU position %d holds %q (%d B), reference %q (%d B)", i, c.key(), len(c.value()), n.key, len(n.value))
		}
		r, n = e.next(r), n.next
	}
	if r != 0 || n != nil {
		return "LRU lists differ in length"
	}
	if e.used != ref.used {
		return fmt.Sprintf("bytes used %d, reference %d", e.used, ref.used)
	}
	return ""
}

// refChunk renders a reference node as a chunk, so appendValue frames
// both engines' hits with the same code.
func refChunk(n *node) chunk {
	if n == nil {
		return nil
	}
	c := make(chunk, hdrSize, hdrSize+len(n.key)+len(n.value))
	binary.LittleEndian.PutUint32(c[hdrFlags:], n.flags)
	c[hdrKeyLen] = uint8(len(n.key))
	return append(append(c, n.key...), n.value...)
}
