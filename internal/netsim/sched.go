package netsim

import (
	"math/bits"
	"time"
)

// The scheduler is a hierarchical timing wheel. A record due in slot s
// (at >> slotShift) is filed by the highest base-256 digit in which s
// differs from the cursor's slot: digit 0 means the cursor's own block
// of 256 slots (level 0, ~524 µs each), digit 1 a later block of the
// same 134 ms × 256 stretch (level 1), digit 2 level 2 (34 s slots,
// 2.4 h in all); anything beyond shares one far list. Filing is O(1)
// at any distance, every level-l record is due before every record of
// a level above it, and a record moves down one level each time the
// cursor enters the slot it sits in (enter), so only live timers ever
// cascade: Network.Stop unlinks a record from its slot and recycles it
// on the spot.
//
// Events due at or before the cursor's slot live in curHeap, a small
// typed min-heap ordered by (at, seq), which is what preserves the
// bit-for-bit deterministic execution order of a single global heap:
// ties on virtual time always break by schedule sequence.
//
// All event records are pooled (see freeEvent); a Timer handle names its
// event by sequence number, which no later tenant of the record shares,
// so cancellation needs no per-timer allocation.
const (
	// slotShift gives a slot width of 2^19 ns ≈ 524 µs: fine enough that
	// intra-DC hops (150 µs) land at most one slot ahead, coarse enough
	// that a 30 ms Internet hop stays inside level 0 four times in five.
	slotShift = 19
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	levels    = 3
	farSlot   = levels * wheelSize // list of everything past the top level
	inHeap    = -1                 // event.slot of a record held by curHeap
)

// event is a scheduled occurrence on the virtual clock. seq breaks ties
// so that events scheduled earlier fire earlier, keeping runs
// deterministic, and is zero while the record is in the pool. Never
// reused, it is also what makes a stale Timer handle inert.
//
// what is the occurrence, in one interface word pair: a packet to
// deliver to dst, as a *delivery, or the Firer of a timer (Arm). Holding
// either in the same two words keeps the record at one 64-byte cache
// line (TestEventIsOneCacheLine).
//
// A delivery event may carry a train: additional packets due at the same
// instant that ride this record instead of their own (see Network.Send).
// Each train entry consumed a sequence number when it was appended, so
// the burst dispatch in execute replays exactly the (at, seq) order the
// unbatched scheduler would have produced.
//
// A record waiting in a wheel slot is a member of that slot's list: slot
// is the list's index into Network.slots and pprev the link that points
// at the record, so unlink needs no list head. In curHeap slot is
// inHeap and the links mean nothing; only there can a record be
// cancelled without being freed.
type event struct {
	at        time.Duration
	seq       uint64
	what      Firer // *delivery or a timer's owner
	train     *trainBox
	next      *event
	pprev     **event
	dst       IP
	slot      int16
	cancelled bool
}

// trainEntry is one extra delivery coalesced onto an open delivery
// event. Entries never get Timer handles and are never cancelled.
type trainEntry struct {
	pkt *Packet
	dst IP
}

// trainBox holds a train's entries behind one pointer, keeping the event
// record at a single cache line for the (overwhelmingly common) untrained
// case. The entries start in the box's own array, allocated with it; a
// train that outgrows it moves to a trainMax array (growTrain), which
// goes back to Network.trainArrays when the box is freed, so a free box
// holds its own array only, however long the trains it carried. One
// move, not a doubling series, keeps a long train's copying to its first
// trainOwn entries.
type trainBox struct {
	entries []trainEntry
	own     [trainOwn]trainEntry
}

const (
	// trainMax bounds how many deliveries one event record may carry, so
	// pooled train slices stay cache-friendly and a pathological burst
	// cannot grow one unbounded backing array.
	trainMax = 256
	// trainOwn is the entries a box holds in its own array.
	trainOwn = 16
)

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a typed binary min-heap over (at, seq). It replaces
// container/heap to avoid the interface{} boxing on every push and pop.
type eventQueue []*event

func (q *eventQueue) push(e *event) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	siftDown(h, 0)
	return top
}

func siftDown(h []*event, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventLess(h[l], h[min]) {
			min = l
		}
		if r < n && eventLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Timer is a cancellable handle to a scheduled event: two words, as its
// owner already reaches the network that cancels it (Network.Stop). The
// zero value is inert: Stop and Active on it are no-ops. Handles stay
// valid (and become inert) after the event fires or is cancelled, even
// though the underlying record is recycled — the sequence check detects
// reuse.
type Timer struct {
	ev  *event
	seq uint64
}

// Stop prevents t from firing. Stopping an already-fired,
// already-stopped, or zero timer is a no-op. A record waiting in a wheel
// slot is unlinked and recycled at once; one already in curHeap is only
// marked, and lets its callback go, until the heap pops it. t must come
// from n.
func (n *Network) Stop(t Timer) {
	e := t.ev
	if e == nil || e.seq != t.seq || e.cancelled {
		return
	}
	if e.slot == inHeap {
		e.cancelled = true
		e.what = nil
		n.cancelledPending++
		return
	}
	n.unlink(e)
	n.queued--
	n.freeEvent(e)
}

// Active reports whether the timer is still scheduled to fire.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.seq == t.seq && !t.ev.cancelled
}

// allocEvent takes a record off the freelist (or allocates one).
func (n *Network) allocEvent() *event {
	if k := len(n.evFree); k > 0 {
		e := n.evFree[k-1]
		n.evFree = n.evFree[:k-1]
		return e
	}
	return &event{}
}

// freeEvent recycles a record. Zeroing seq invalidates any Timer
// handle still pointing at it. execute detaches trains before freeing;
// the defensive release here only matters if an unfired trained event is
// ever discarded (not possible today — deliveries are never cancelled).
func (n *Network) freeEvent(e *event) {
	if e.train != nil {
		n.freeTrain(e.train)
		e.train = nil
	}
	e.what = nil
	e.cancelled = false
	e.seq = 0
	n.evFree = append(n.evFree, e)
}

// allocTrain takes a train box off the freelist (or allocates one).
func (n *Network) allocTrain() *trainBox {
	if k := len(n.trainFree); k > 0 {
		t := n.trainFree[k-1]
		n.trainFree = n.trainFree[:k-1]
		return t
	}
	n.trains++
	t := &trainBox{}
	t.entries = t.own[:0]
	return t
}

// growTrain moves a train that filled its box's own array to a trainMax
// array, one a freed train left in trainArrays when there is one.
func (n *Network) growTrain(t *trainBox) {
	var a []trainEntry
	if k := len(n.trainArrays); k > 0 {
		a = n.trainArrays[k-1]
		n.trainArrays = n.trainArrays[:k-1]
	} else {
		a = make([]trainEntry, 0, trainMax)
	}
	a = append(a, t.entries...)
	clear(t.entries)
	t.entries = a
}

// freeTrain recycles a train box, dropping its packet references and
// filing a trainMax array it grew into in trainArrays. One pool
// operation retires the whole burst — pool maintenance batches at the
// same granularity the deliveries did.
func (n *Network) freeTrain(t *trainBox) {
	clear(t.entries)
	if cap(t.entries) == trainMax {
		n.trainArrays = append(n.trainArrays, t.entries[:0])
	}
	t.entries = t.own[:0]
	n.trainFree = append(n.trainFree, t)
}

// scheduleEvent queues e. e.at must be >= the time of the last executed
// event.
func (n *Network) scheduleEvent(e *event) {
	// Filing any other event at the open train's instant would interleave
	// a sequence number between the train head and later appends, so the
	// train must stop accepting members to preserve (at, seq) order.
	if n.openTrain != nil && e.at == n.openAt && e != n.openTrain {
		n.openTrain = nil
	}
	n.queued++
	n.file(e)
}

// file puts e where its distance from the cursor says: curHeap when it
// is due in (or before) the cursor's slot — the cursor may run ahead of
// the clock after idle jumps, so "before" is possible and the heap
// ordering still executes these first — else the front of the list for
// the highest digit in which its slot differs from the cursor's.
func (n *Network) file(e *event) {
	slot := int64(e.at >> slotShift)
	if slot <= n.curSlot {
		e.slot = inHeap
		n.curHeap.push(e)
		return
	}
	idx := farSlot
	if l := (bits.Len64(uint64(slot^n.curSlot)) - 1) / wheelBits; l < levels {
		idx = slotIndex(l, slot)
	}
	head := &n.slots[idx]
	e.slot, e.next, e.pprev = int16(idx), *head, head
	if e.next != nil {
		e.next.pprev = &e.next
	}
	*head = e
	n.occupied[idx>>6] |= 1 << (uint(idx) & 63)
}

// slotIndex is the index in Network.slots of the level-l list that
// holds, or is entered at, level-0 slot number slot.
func slotIndex(l int, slot int64) int {
	return l*wheelSize + int(slot>>(l*wheelBits))&wheelMask
}

// unlink takes e out of the wheel list it waits in.
func (n *Network) unlink(e *event) {
	*e.pprev = e.next
	if e.next != nil {
		e.next.pprev = e.pprev
	} else if idx := int(e.slot); n.slots[idx] == nil {
		n.occupied[idx>>6] &^= 1 << (uint(idx) & 63)
	}
}

// nextEvent positions the next live event at the top of curHeap and
// returns it, draining cancelled events where they are popped. The
// cursor is not moved past slot limit: nil means no event remains that
// is due in or before it.
func (n *Network) nextEvent(limit int64) *event {
	for {
		for len(n.curHeap) > 0 {
			e := n.curHeap[0]
			if !e.cancelled {
				return e
			}
			// Deliveries are never cancelled, so e is not the open train.
			n.curHeap.pop()
			n.queued--
			n.cancelledPending--
			n.freeEvent(e)
		}
		if !n.advance(limit) {
			return nil
		}
	}
}

// advance moves the cursor, while curHeap is empty, to the earliest
// occupied position: the first occupied slot past the cursor's digit in
// the lowest level that has one, else the earliest far record. Entering
// an upper-level slot may only refill lower levels, hence the loop.
// Returns false, and leaves the cursor be, when that position is past
// slot limit or the scheduler is empty.
func (n *Network) advance(limit int64) bool {
	for len(n.curHeap) == 0 && n.queued > 0 {
		pos := int64(-1)
		for l := 0; l < levels && pos < 0; l++ {
			if idx := n.nextOccupied(l); idx >= 0 {
				sh := uint(l * wheelBits)
				pos = (n.curSlot>>sh&^wheelMask | int64(idx&wheelMask)) << sh
			}
		}
		if pos < 0 { // only far records remain
			pos = int64(n.slots[farSlot].at >> slotShift)
			for e := n.slots[farSlot].next; e != nil; e = e.next {
				pos = min(pos, int64(e.at>>slotShift))
			}
		}
		if pos > limit {
			return false
		}
		n.enter(pos)
	}
	return len(n.curHeap) > 0
}

// enter moves the cursor to slot pos and refiles, top level first, the
// lists now filed under the cursor's own digits — one per level, and the
// far list when the cursor leaves the top level's span — so every record
// again sits at the highest digit that tells it from the cursor; what is
// due in pos itself lands in curHeap. Only safe when no live event is
// due in a slot between the old cursor and pos.
func (n *Network) enter(pos int64) {
	n.trimFree()
	leftSpan := n.curSlot>>(levels*wheelBits) != pos>>(levels*wheelBits)
	n.curSlot = pos
	if leftSpan {
		n.refile(farSlot)
	}
	for l := levels - 1; l >= 0; l-- {
		n.refile(slotIndex(l, pos))
	}
}

// refile empties list idx and files its records afresh.
func (n *Network) refile(idx int) {
	e := n.slots[idx]
	n.slots[idx] = nil
	n.occupied[idx>>6] &^= 1 << (uint(idx) & 63)
	for e != nil {
		next := e.next
		n.file(e)
		e = next
	}
}

// nextOccupied returns the index in Network.slots of the first occupied
// level-l list past the one the cursor is in, or -1.
func (n *Network) nextOccupied(l int) int {
	for idx := slotIndex(l, n.curSlot) + 1; idx < (l+1)*wheelSize; idx = (idx | 63) + 1 {
		if w := n.occupied[idx>>6] >> (uint(idx) & 63); w != 0 {
			return idx + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// syncCursor catches the cursor up after the clock jumped (Run hitting
// its deadline with no events left to execute before it), so that what
// is armed next is filed by its distance from the clock. Only safe when
// every slot between the old cursor and the clock is known to hold no
// live events; callers guarantee that by having drained them first.
func (n *Network) syncCursor() {
	if target := int64(n.now >> slotShift); target > n.curSlot && len(n.curHeap) == 0 {
		n.enter(target)
	}
}
