// Package memcache implements the memcached TCPStore runs on: an
// in-memory key-value engine with LRU eviction, the four verbs of the
// classic text protocol the store client sends (get, set, delete and the
// batched mset extension), and the adapter that serves them inside the
// netsim event loop.
//
// Yoda's TCPStore (§4.3, §6) runs unmodified Memcached servers and does
// replication purely in the client library; this package is that
// "unmodified Memcached". The engine stores items the way memcached does:
// each item is one chunk — a fixed header, the key and the value — in a
// size class's pointer-free slab pages, found through an open-addressing
// table of chunk references. A stored flow record therefore costs the
// heap one chunk and one index slot, and the collector nothing to mark.
package memcache

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"time"
)

// Item is one stored value as surfaced by the public engine API. Items
// are copies: callers never alias the engine's slab pages.
type Item struct {
	Key     string
	Value   []byte
	Flags   uint32
	Expires time.Duration // absolute virtual/real time; 0 = never
}

// Stats reports engine counters.
type Stats struct {
	CurrItems   int
	BytesUsed   int
	GetHits     uint64
	GetMisses   uint64
	Sets        uint64
	Deletes     uint64
	Evictions   uint64
	Expirations uint64
}

// ref names a chunk: its page's index in Engine.pages in the high bits
// and its byte offset in that page in the low 16. 0 is nil (page 0 is
// never allocated), so a zeroed index slot or LRU link is empty.
type ref int32

const (
	offBits = 16
	offMask = 1<<offBits - 1
	// maxPages bounds the page table so every ref stays a positive int32.
	maxPages = 1 << (31 - offBits)
)

// Chunk header layout, little-endian. prev and next link the global LRU
// list (prev toward the most recently used end); a free chunk threads its
// class's free list through both, and its class byte reads freeChunk.
const (
	hdrPrev    = 0  // ref
	hdrNext    = 4  // ref
	hdrExpires = 8  // int64 absolute expiry, 0 = never
	hdrFlags   = 16 // uint32
	hdrValLen  = 20 // uint32
	hdrKeyLen  = 24 // uint8: keys are at most maxKeyLen bytes
	hdrClass   = 25 // uint8: size class, or bigClass
	hdrSize    = 26
)

// Size classes: chunk sizes from minChunk growing by about ×1.25 up to
// maxChunk. A chunk that needs more than maxChunk bytes gets an array of
// its own (bigClass). A class's pages start at minPage bytes and double up
// to maxPage. A class gives its newest page back once the pages before it
// would still be at most half full and hold classFloor bytes (shrink), so
// the footprint follows the items a class holds now, within a factor of
// about two, not the most it ever held.
const (
	minChunk   = 48
	maxChunk   = 16 << 10
	minPage    = 1 << 10
	maxPage    = 64 << 10
	classFloor = 32 << 10
	bigClass   = 0xff
	freeChunk  = 0xfe
)

// classSize lists the chunk size of each class.
var classSize = sizeClasses()

func sizeClasses() []int32 {
	var sizes []int32
	for s := minChunk; s < maxChunk; s = max(s+8, s*5/4) {
		sizes = append(sizes, int32(s))
	}
	return append(sizes, maxChunk)
}

// slabClass is one size class's allocator: a free list of released
// chunks, then a bump pointer into its newest page.
type slabClass struct {
	free     ref   // released chunks, doubly linked through hdrNext and hdrPrev
	page     int32 // index of the newest page (Engine.below chains the rest); 0 before the first
	off      int32 // next unused byte in that page
	nextPage int32 // size of the page the class allocates next; 0 = minPage
	live     int32 // chunks in use
	bytes    int32 // bytes the class's pages hold
}

// Index table bounds: the table starts at minSlots, doubles when it is
// three quarters full and halves when it is a quarter full, never below
// slotFloor.
const (
	minSlots  = 16
	slotFloor = 1 << 10
)

// Engine is the storage engine: a hash index over slab-allocated chunks
// with one LRU list under a memory cap. It is not safe for concurrent
// use; every caller runs on the one netsim event loop.
//
// Each operation is written once, on the (index slot, chunk) pair a
// lookup returned (hit, store, remove); the string-keyed Get and Set and
// the byte-keyed forms the protocol session calls differ only in how the
// key arrives.
type Engine struct {
	pages     [][]byte    // slab pages and own-array chunks; pages[0] is nil
	below     []int32     // per page, the page its class added before it (0 = none)
	freePages []int32     // indexes of released pages and own-array chunks
	classes   []slabClass // up to the largest class used so far

	// slots is the open-addressing index: hash<<32 | ref, 0 = empty,
	// linear probing with backward-shift deletion.
	slots []uint64
	count int

	head, tail ref // most and least recently used
	maxBytes   int
	used       int
	now        func() time.Duration
	stats      Stats
}

// NewEngine creates an engine with the given memory cap in bytes (<=0
// means unlimited) and clock: inside netsim pass the network's Now; nil
// means wall time since creation.
func NewEngine(maxBytes int, now func() time.Duration) *Engine {
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	return &Engine{
		pages:    [][]byte{nil},
		below:    make([]int32, 1, 4), // 16 B: never a tiny allocation
		slots:    make([]uint64, minSlots),
		maxBytes: maxBytes,
		now:      now,
	}
}

// --- chunks ---

// chunk is one stored item: header, key, value.
type chunk []byte

func (c chunk) key() []byte   { return c[hdrSize : hdrSize+int(c[hdrKeyLen])] }
func (c chunk) value() []byte { return c[hdrSize+int(c[hdrKeyLen]):] }
func (c chunk) flags() uint32 { return binary.LittleEndian.Uint32(c[hdrFlags:]) }
func (c chunk) expires() time.Duration {
	return time.Duration(binary.LittleEndian.Uint64(c[hdrExpires:]))
}

// hdr returns the page bytes from r's header on.
func (e *Engine) hdr(r ref) []byte { return e.pages[r>>offBits][r&offMask:] }

// chunk returns r's header, key and value.
func (e *Engine) chunk(r ref) chunk {
	h := e.hdr(r)
	return chunk(h[:hdrSize+int(h[hdrKeyLen])+int(binary.LittleEndian.Uint32(h[hdrValLen:]))])
}

func (e *Engine) next(r ref) ref { return ref(binary.LittleEndian.Uint32(e.hdr(r)[hdrNext:])) }
func (e *Engine) prev(r ref) ref { return ref(binary.LittleEndian.Uint32(e.hdr(r)[hdrPrev:])) }

func (e *Engine) setNext(r, n ref) { binary.LittleEndian.PutUint32(e.hdr(r)[hdrNext:], uint32(n)) }
func (e *Engine) setPrev(r, p ref) { binary.LittleEndian.PutUint32(e.hdr(r)[hdrPrev:], uint32(p)) }

// itemSize is an item's charge against the memory cap, as before the
// slab layout: key, value and a fixed 64-byte overhead.
func itemSize(c chunk) int { return len(c) - hdrSize + 64 }

// expired reports whether c is past its expiry.
func (e *Engine) expired(c chunk) bool {
	exp := c.expires()
	return exp > 0 && e.now() >= exp
}

// classFor returns the smallest class whose chunks hold size bytes, or
// bigClass.
func classFor(size int) uint8 {
	if size > maxChunk {
		return bigClass
	}
	c := 0
	for int(classSize[c]) < size {
		c++
	}
	return uint8(c)
}

// fits reports whether r's chunk can take size bytes in place: a slab
// chunk when size is still of its class, an own array when it is still
// too large for any class and within the array.
func (e *Engine) fits(r ref, size int) bool {
	h := e.hdr(r)
	c := classFor(size)
	return c == h[hdrClass] && (c != bigClass || size <= len(h))
}

// alloc returns a chunk of size bytes' class with its class byte set:
// a released chunk if the class has one, else the next in its newest
// page, else the first in a new page.
func (e *Engine) alloc(size int) ref {
	c := classFor(size)
	if c == bigClass {
		r := ref(e.addPage(make([]byte, size)) << offBits)
		e.hdr(r)[hdrClass] = bigClass
		return r
	}
	if int(c) >= len(e.classes) {
		e.classes = append(e.classes, make([]slabClass, int(c)+1-len(e.classes))...)
	}
	cl := &e.classes[c]
	sz := classSize[c]
	r := cl.free
	if r != 0 {
		e.unlinkFree(cl, r)
	} else {
		if cl.page == 0 || int(cl.off+sz) > len(e.pages[cl.page]) {
			n := max(cl.nextPage, minPage, sz)
			p := e.addPage(make([]byte, n/sz*sz))
			e.below[p], cl.page = cl.page, p
			cl.off = 0
			cl.nextPage = min(2*n, max(maxPage, sz))
			cl.bytes += n / sz * sz
		}
		r = ref(cl.page<<offBits | cl.off)
		cl.off += sz
	}
	cl.live++
	e.hdr(r)[hdrClass] = c
	return r
}

// release gives r's chunk back: a slab chunk to the front of its class's
// free list, an own array to the collector. The class shrinks only once
// the operation is over (shrink).
func (e *Engine) release(r ref) {
	h := e.hdr(r)
	c := h[hdrClass]
	if c == bigClass {
		p := int32(r >> offBits)
		e.pages[p] = nil
		e.freePages = append(e.freePages, p)
		return
	}
	cl := &e.classes[c]
	h[hdrClass] = freeChunk
	e.setPrev(r, 0)
	e.setNext(r, cl.free)
	if cl.free != 0 {
		e.setPrev(cl.free, r)
	}
	cl.free = r
	cl.live--
}

// unlinkFree takes the free chunk r off cl's free list.
func (e *Engine) unlinkFree(cl *slabClass, r ref) {
	p, n := e.prev(r), e.next(r)
	if p != 0 {
		e.setNext(p, n)
	} else {
		cl.free = n
	}
	if n != 0 {
		e.setPrev(n, p)
	}
}

// shrink gives back class c's newest page while the pages before it
// would still be at most half full and hold classFloor bytes: memcached's
// slab mover, in the order pages were added. Each live chunk of the page
// moves into a free chunk of a page that stays, and its index slot and
// LRU neighbours follow it, so the cost is one pass over the page. A
// class that grows back starts again from the size of the page it gave
// up.
func (e *Engine) shrink(c uint8) {
	if c == bigClass {
		return
	}
	cl := &e.classes[c]
	sz := classSize[c]
	for cl.page != 0 {
		p := cl.page
		page := e.pages[p]
		rest := cl.bytes - int32(len(page))
		if rest < classFloor || rest/sz < 2*cl.live {
			return
		}
		for o := int32(0); o < cl.off; o += sz {
			if r := ref(p<<offBits | o); page[o+hdrClass] == freeChunk {
				e.unlinkFree(cl, r)
			}
		}
		for o := int32(0); o < cl.off; o += sz {
			if r := ref(p<<offBits | o); page[o+hdrClass] != freeChunk {
				e.move(cl, r, sz)
			}
		}
		e.pages[p] = nil
		e.freePages = append(e.freePages, p)
		cl.page = e.below[p]
		cl.off = int32(len(e.pages[cl.page]))
		cl.nextPage = int32(len(page))
		cl.bytes = rest
	}
}

// move copies the live chunk r of sz bytes into the head of cl's free
// list and points r's index slot and LRU neighbours at the copy.
func (e *Engine) move(cl *slabClass, r ref, sz int32) {
	d := cl.free
	e.unlinkFree(cl, d)
	copy(e.hdr(d)[:sz], e.hdr(r)[:sz])
	if p := e.prev(d); p != 0 {
		e.setNext(p, d)
	} else {
		e.head = d
	}
	if n := e.next(d); n != 0 {
		e.setPrev(n, d)
	} else {
		e.tail = d
	}
	i := e.slotOf(r)
	e.slots[i] = e.slots[i]&^(1<<32-1) | uint64(uint32(d))
}

// addPage files p in the page table, in a released own array's slot if
// there is one, and returns its index.
func (e *Engine) addPage(p []byte) int32 {
	if n := len(e.freePages); n > 0 {
		i := e.freePages[n-1]
		e.freePages = e.freePages[:n-1]
		e.pages[i] = p
		return i
	}
	if len(e.pages) == maxPages {
		panic("memcache: slab page table full")
	}
	e.pages = append(e.pages, p)
	e.below = append(e.below, 0)
	return int32(len(e.pages) - 1)
}

// --- the LRU list, linked through the chunk headers ---

func (e *Engine) pushFront(r ref) {
	e.setPrev(r, 0)
	e.setNext(r, e.head)
	if e.head != 0 {
		e.setPrev(e.head, r)
	}
	e.head = r
	if e.tail == 0 {
		e.tail = r
	}
}

func (e *Engine) unlink(r ref) {
	p, n := e.prev(r), e.next(r)
	if p != 0 {
		e.setNext(p, n)
	} else {
		e.head = n
	}
	if n != 0 {
		e.setPrev(n, p)
	} else {
		e.tail = p
	}
}

func (e *Engine) moveToFront(r ref) {
	if e.head == r {
		return
	}
	e.unlink(r)
	e.pushFront(r)
}

// --- the index ---

// hashKey is a fixed-seed hash that reads the key a word at a time, so
// probe order (and with it every run) is the same from process to
// process.
func hashKey(k []byte) uint32 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(k)) * m
	for ; len(k) >= 8; k = k[8:] {
		h = bits.RotateLeft64((h^binary.LittleEndian.Uint64(k))*m, 31)
	}
	var t uint64
	for i, b := range k {
		t |= uint64(b) << (8 * i)
	}
	h = (h ^ t) * m
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return uint32(h >> 32)
}

// find returns key's index slot and chunk, or the empty slot where key
// would go and 0.
func (e *Engine) find(key []byte, h uint32) (int, ref) {
	mask := len(e.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := e.slots[i]
		if s == 0 {
			return i, 0
		}
		if uint32(s>>32) == h && bytes.Equal(e.chunk(ref(s)).key(), key) {
			return i, ref(s)
		}
	}
}

// slotOf returns the index slot that holds r.
func (e *Engine) slotOf(r ref) int {
	mask := len(e.slots) - 1
	for i := int(hashKey(e.chunk(r).key())) & mask; ; i = (i + 1) & mask {
		if ref(e.slots[i]) == r {
			return i
		}
	}
}

// index fills the empty slot i, growing the table past three quarters.
func (e *Engine) index(i int, h uint32, r ref) {
	e.slots[i] = uint64(h)<<32 | uint64(uint32(r))
	e.count++
	if e.count*4 > len(e.slots)*3 {
		e.rehash(2 * len(e.slots))
	}
}

// rehash moves the index into a table of n slots.
func (e *Engine) rehash(n int) {
	old := e.slots
	e.slots = make([]uint64, n)
	mask := len(e.slots) - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		j := int(s>>32) & mask
		for e.slots[j] != 0 {
			j = (j + 1) & mask
		}
		e.slots[j] = s
	}
}

// unindex empties slot i, shifting back the entries of its probe run
// that may now sit closer to home.
func (e *Engine) unindex(i int) {
	mask := len(e.slots) - 1
	for j := (i + 1) & mask; e.slots[j] != 0; j = (j + 1) & mask {
		home := int(e.slots[j]>>32) & mask
		if (j-home)&mask >= (j-i)&mask {
			e.slots[i] = e.slots[j]
			i = j
		}
	}
	e.slots[i] = 0
	e.count--
}

// --- the operations, each on the slot and chunk a lookup returned (0 = absent) ---

// hit is a get: it counts the hit or miss, drops an expired item, bumps a
// live one to the front of the LRU list and returns it (0 on a miss).
func (e *Engine) hit(i int, r ref) ref {
	if r != 0 && e.expired(e.chunk(r)) {
		e.drop(i, r)
		e.stats.Expirations++
		r = 0
	}
	if r == 0 {
		e.stats.GetMisses++
		return 0
	}
	e.moveToFront(r)
	e.stats.GetHits++
	return r
}

// store is a set: it writes the item into r's chunk, or into a chunk of
// the new size's class that replaces it (into a new chunk when r is 0),
// makes it the most recently used and evicts from the cold end down to
// the byte cap.
func (e *Engine) store(i int, h uint32, r ref, key, value []byte, flags uint32, expires time.Duration) {
	size := hdrSize + len(key) + len(value)
	moved := uint8(bigClass)
	switch {
	case r == 0:
		r = e.alloc(size)
		e.index(i, h, r)
		e.pushFront(r)
	case !e.fits(r, size):
		moved = e.hdr(r)[hdrClass]
		e.used -= itemSize(e.chunk(r))
		e.unlink(r)
		e.release(r)
		r = e.alloc(size)
		e.slots[i] = uint64(h)<<32 | uint64(uint32(r))
		e.pushFront(r)
	default:
		e.used -= itemSize(e.chunk(r))
		e.moveToFront(r)
	}
	c := e.hdr(r)
	binary.LittleEndian.PutUint64(c[hdrExpires:], uint64(expires))
	binary.LittleEndian.PutUint32(c[hdrFlags:], flags)
	binary.LittleEndian.PutUint32(c[hdrValLen:], uint32(len(value)))
	c[hdrKeyLen] = uint8(len(key))
	copy(c[hdrSize+copy(c[hdrSize:], key):], value)
	e.used += len(key) + len(value) + 64
	for e.maxBytes > 0 && e.used > e.maxBytes && e.tail != 0 {
		e.drop(e.slotOf(e.tail), e.tail)
		e.stats.Evictions++
	}
	e.shrink(moved)
	e.stats.Sets++
}

// remove is a delete: it reports whether r was present and unexpired.
func (e *Engine) remove(i int, r ref) bool {
	if r == 0 {
		return false
	}
	expired := e.expired(e.chunk(r))
	e.drop(i, r)
	if expired {
		e.stats.Expirations++
	} else {
		e.stats.Deletes++
	}
	return !expired
}

// drop takes r out of the index and the list and releases its chunk,
// then lets r's class and the index shrink: no slot or chunk the caller
// looked up is used after a drop.
func (e *Engine) drop(i int, r ref) {
	c := e.hdr(r)[hdrClass]
	e.used -= itemSize(e.chunk(r))
	e.unindex(i)
	e.unlink(r)
	e.release(r)
	e.shrink(c)
	if e.count*4 <= len(e.slots) && len(e.slots) > slotFloor {
		e.rehash(max(slotFloor, len(e.slots)/2))
	}
}

// --- entry points: string keys for callers, byte keys for the session ---

// Get returns a copy of the item stored under key, or ok=false.
func (e *Engine) Get(key string) (Item, bool) {
	c := e.getBytes([]byte(key))
	if c == nil {
		return Item{}, false
	}
	return Item{Key: key, Value: bytes.Clone(c.value()), Flags: c.flags(), Expires: c.expires()}, true
}

// Set unconditionally stores the item. Its key is at most 250 bytes
// (maxKeyLen), memcached's limit, which the session enforces on the wire.
func (e *Engine) Set(it Item) { e.setBytes([]byte(it.Key), it.Value, it.Flags, it.Expires) }

// getBytes, setBytes and deleteBytes take keys and values sliced out of a
// protocol buffer; a set copies both into the chunk, and nothing else a
// set, get or delete does allocates once the pages and index are grown.
// The chunk getBytes returns is valid until the next set or delete.
func (e *Engine) getBytes(key []byte) chunk {
	r := e.hit(e.find(key, hashKey(key)))
	if r == 0 {
		return nil
	}
	return e.chunk(r)
}

func (e *Engine) setBytes(key, value []byte, flags uint32, expires time.Duration) {
	if len(key) > maxKeyLen {
		panic("memcache: key longer than maxKeyLen")
	}
	h := hashKey(key)
	i, r := e.find(key, h)
	e.store(i, h, r, key, value, flags, expires)
}

func (e *Engine) deleteBytes(key []byte) bool { return e.remove(e.find(key, hashKey(key))) }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.CurrItems = e.count
	s.BytesUsed = e.used
	return s
}
