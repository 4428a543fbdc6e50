package flowmap

import (
	"math/bits"

	"repro/internal/netsim"
)

// Compact is the flow table: a two-choice cuckoo hash over
// 64-byte buckets of four 16-byte slots (64-bit tag, 32-bit value,
// 32-bit generation), so a lookup touches at most two cache lines.
// Live entries cost slots×16 bytes at the table's load factor — a few
// tens of bytes per flow at worst, ~18 B at a sized table's steady
// load — independent of tuple size, with no per-entry heap object for
// the GC to trace.
//
// Inserts relocate entries with a bounded, deterministic kick sequence
// and grow the bucket array (rehashing in place, dropping dead
// entries) when placement fails; a delete that leaves no more than a
// quarter of the slots live rebuilds it at half the size, never below
// floorBuckets. So individual operations never allocate in steady
// state, and growth and shrinking are amortized. All behaviour is
// deterministic: no RNG, map iteration, or address-dependent state.
type Compact struct {
	buckets []bucket
	nb      uint64 // len(buckets), not required to be a power of two
	live    int    // entries inserted and neither deleted nor evicted
	epoch   uint64 // EvictValue count
	kick    uint32 // rotating victim cursor for cuckoo relocation

	// Per-value generations: an entry is live iff its gen matches
	// vgens[val]. liveByVal keeps Len exact under O(1) eviction.
	vgens     []uint32
	liveByVal []int32
}

type slot struct {
	tag uint64 // hashTuple of the entry's tuple; 0 = empty
	val Value
	gen uint32
}

const bucketSlots = 4

type bucket struct {
	s [bucketSlots]slot
}

// maxKicks bounds the cuckoo relocation chain before the table grows.
const maxKicks = 32

// floorBuckets is the fewest buckets a table shrinks to: a warm bed's
// flows, at a sized table's load.
const floorBuckets = 64

// hintLoad is the load factor a capacity hint is sized for. Two-choice
// four-way cuckoo sustains ~0.95; sizing to 0.8 keeps kick chains
// short and leaves post-hint headroom before the first growth.
const hintLoad = 0.8

// NewCompact returns a table pre-sized so capacityHint entries fit
// without growth. A hint ≤ 0 starts at the minimum size and grows on
// demand.
func NewCompact(capacityHint int) *Compact {
	nb := uint64(2)
	if capacityHint > 0 {
		if want := uint64(float64(capacityHint)/(bucketSlots*hintLoad)) + 1; want > nb {
			nb = want
		}
	}
	return &Compact{buckets: make([]bucket, nb), nb: nb}
}

// home1 and home2 are the entry's two candidate buckets, both
// recomputable from the stored tag alone (which is what lets a kicked
// victim find its alternate bucket without the original tuple).
// Bucket indices come from the high half of a 64×64 multiply
// (Lemire's fastrange), so the bucket count need not be a power of
// two and growth can stay geometric without pow2 jumps.
func (c *Compact) home1(tag uint64) uint64 {
	hi, _ := bits.Mul64(tag, c.nb)
	return hi
}

func (c *Compact) home2(tag uint64) uint64 {
	x := tag ^ 0x6a09e667f3bcc909
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	hi, _ := bits.Mul64(x, c.nb)
	return hi
}

func (c *Compact) altBucket(tag, b uint64) uint64 {
	if h1 := c.home1(tag); h1 != b {
		return h1
	}
	return c.home2(tag)
}

// vgen returns the current generation for v (0 if v was never touched
// by EvictValue or ensureVal growth).
func (c *Compact) vgen(v Value) uint32 {
	if uint64(v) < uint64(len(c.vgens)) {
		return c.vgens[v]
	}
	return 0
}

// ensureVal grows the per-value bookkeeping to cover v. Amortized:
// steady-state inserts over an already-seen value range do not
// allocate.
func (c *Compact) ensureVal(v Value) {
	for uint64(len(c.vgens)) <= uint64(v) {
		c.vgens = append(c.vgens, 0)
		c.liveByVal = append(c.liveByVal, 0)
	}
}

func (c *Compact) isDead(s *slot) bool { return s.gen != c.vgen(s.val) }

// findTag returns the slot in bucket b holding tag, live or dead.
func (c *Compact) findTag(b uint64, tag uint64) *slot {
	bk := &c.buckets[b]
	for i := range bk.s {
		if bk.s[i].tag == tag {
			return &bk.s[i]
		}
	}
	return nil
}

// Insert maps ft to v, overwriting an existing entry for the same
// tuple (tag). It always succeeds, growing the table if placement
// fails. Steady-state inserts are allocation-free.
func (c *Compact) Insert(ft netsim.FourTuple, v Value) bool {
	c.ensureVal(v)
	tag := hashTuple(ft)
	b1 := c.home1(tag)
	s := c.findTag(b1, tag)
	if s == nil {
		if b2 := c.home2(tag); b2 != b1 {
			s = c.findTag(b2, tag)
		}
	}
	if s != nil {
		if c.isDead(s) {
			// The tuple's previous entry was evicted; this is a fresh
			// insert reclaiming the slot.
			c.live++
			c.liveByVal[v]++
		} else {
			c.liveByVal[s.val]--
			c.liveByVal[v]++
		}
		s.val, s.gen = v, c.vgens[v]
		return true
	}
	e := slot{tag: tag, val: v, gen: c.vgens[v]}
	b := b1
	for {
		homeless, ok := c.place(e, b)
		if ok {
			break
		}
		// The chain ended with some displaced victim (not necessarily
		// the new entry) still in hand; grow, then re-place it.
		e = homeless
		c.grow()
		b = c.home1(e.tag)
	}
	c.live++
	c.liveByVal[v]++
	return true
}

// tryPut stores e into a free or dead slot of bucket b, reporting
// success. Dead slots (generation-mismatched leftovers of EvictValue)
// are reclaimed here; their live accounting was already settled at
// eviction time.
func (c *Compact) tryPut(b uint64, e slot) bool {
	bk := &c.buckets[b]
	for i := range bk.s {
		if bk.s[i].tag == 0 || c.isDead(&bk.s[i]) {
			bk.s[i] = e
			return true
		}
	}
	return false
}

// place runs the bounded cuckoo relocation chain starting at bucket b
// (one of e's homes). Victims are chosen by a rotating cursor, keeping
// the sequence deterministic without an RNG. On failure the entry
// still in hand — some displaced victim, not necessarily e — is
// returned so the caller can grow and re-place it; losing it would
// silently drop a live flow.
func (c *Compact) place(e slot, b uint64) (homeless slot, ok bool) {
	for i := 0; i < maxKicks; i++ {
		if c.tryPut(b, e) {
			return slot{}, true
		}
		if ab := c.altBucket(e.tag, b); ab != b && c.tryPut(ab, e) {
			return slot{}, true
		}
		sl := &c.buckets[b].s[c.kick&(bucketSlots-1)]
		c.kick++
		e, *sl = *sl, e
		b = c.altBucket(e.tag, b)
	}
	return e, false
}

// grow rebuilds the table at twice the bucket count, dropping dead
// entries along the way (eviction leftovers are physically reclaimed
// here at the latest). A failed rebuild discards the partial new array
// and retries larger from the intact old snapshot, so no entry is
// lost.
func (c *Compact) grow() {
	old := c.buckets
	nb := c.nb
	for {
		nb *= 2
		if c.rebuild(old, nb) {
			return
		}
	}
}

func (c *Compact) rebuild(old []bucket, nb uint64) bool {
	c.buckets = make([]bucket, nb)
	c.nb = nb
	for i := range old {
		for j := range old[i].s {
			s := old[i].s[j]
			if s.tag == 0 || c.isDead(&s) {
				continue
			}
			if _, ok := c.place(s, c.home1(s.tag)); !ok {
				return false
			}
		}
	}
	return true
}

// LookupMaybe returns the value stored for ft. See the package comment
// for the false-hit contract: a hit is authoritative for inserted
// tuples, but a never-inserted tuple aliasing an entry's 64-bit tag
// returns that entry's value.
func (c *Compact) LookupMaybe(ft netsim.FourTuple) (Value, bool) {
	tag := hashTuple(ft)
	b1 := c.home1(tag)
	bk := &c.buckets[b1]
	for i := range bk.s {
		if bk.s[i].tag == tag && bk.s[i].gen == c.vgen(bk.s[i].val) {
			return bk.s[i].val, true
		}
	}
	if b2 := c.home2(tag); b2 != b1 {
		bk = &c.buckets[b2]
		for i := range bk.s {
			if bk.s[i].tag == tag && bk.s[i].gen == c.vgen(bk.s[i].val) {
				return bk.s[i].val, true
			}
		}
	}
	return 0, false
}

// Delete removes ft's entry, reporting whether a live entry was
// removed. A dead (evicted) entry for the same tuple is reclaimed but
// reported as a miss. Deleting a tuple that was never inserted may, with
// the same aliasing probability as a false hit, remove another tuple's
// entry — only delete tuples you inserted.
func (c *Compact) Delete(ft netsim.FourTuple) bool {
	tag := hashTuple(ft)
	s := c.findTag(c.home1(tag), tag)
	if s == nil {
		if b2 := c.home2(tag); b2 != c.home1(tag) {
			s = c.findTag(b2, tag)
		}
	}
	if s == nil {
		return false
	}
	wasLive := !c.isDead(s)
	if wasLive {
		c.live--
		c.liveByVal[s.val]--
	}
	*s = slot{}
	if uint64(c.live) <= c.nb && c.nb > floorBuckets {
		c.shrink()
	}
	return wasLive
}

// shrink rebuilds the table at half its bucket count, dropping dead
// entries. A rebuild that cannot place every entry (at half load, not
// seen) keeps the table as it was.
func (c *Compact) shrink() {
	old, nb := c.buckets, c.nb
	if !c.rebuild(old, max(floorBuckets, nb/2)) {
		c.buckets, c.nb = old, nb
	}
}

// EvictValue invalidates every live entry mapping to v in O(1): the
// value's generation is bumped, so matching entries fail the liveness
// check on their next touch and are reclaimed lazily by inserts,
// deletes, and growth rebuilds.
func (c *Compact) EvictValue(v Value) {
	c.ensureVal(v)
	c.epoch++
	c.live -= int(c.liveByVal[v])
	c.liveByVal[v] = 0
	c.vgens[v]++
}

// Len returns the number of live entries.
func (c *Compact) Len() int { return c.live }

// Epoch returns the eviction-bump count.
func (c *Compact) Epoch() uint64 { return c.epoch }
