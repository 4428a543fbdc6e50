package netsim

import (
	"math/bits"
	"time"
)

// The scheduler is a hierarchical-horizon timer wheel: near-future events
// (within wheelSpan of the cursor) go into fixed-width slots with O(1)
// insertion; far-future events (retransmission timeouts, idle timers)
// fall back to a typed binary heap and migrate into the wheel as the
// cursor approaches them. Events due at or before the cursor's slot live
// in curHeap, a small typed min-heap ordered by (at, seq), which is what
// preserves the bit-for-bit deterministic execution order the old global
// heap provided: ties on virtual time always break by schedule sequence.
//
// All event records are pooled (see freeEvent); a generation counter on
// each record lets Timer handles detect reuse, so cancellation needs no
// per-timer allocation.
const (
	// slotShift gives a slot width of 2^19 ns ≈ 524 µs: fine enough that
	// intra-DC hops (150 µs) land at most one slot ahead, coarse enough
	// that a 30 ms Internet hop stays inside the wheel.
	slotShift = 19
	wheelSize = 256 // power of two; horizon ≈ 134 ms
	wheelMask = wheelSize - 1
)

type eventKind uint8

const (
	evFunc    eventKind = iota // run fn()
	evDeliver                  // deliver pkt to dst (typed fast path, no closure)
)

// event is a scheduled occurrence on the virtual clock. seq breaks ties
// so that events scheduled earlier fire earlier, keeping runs
// deterministic. Records are pooled; gen increments on every recycle so
// stale Timer handles become inert.
//
// A delivery event may carry a train: additional packets due at the same
// instant that ride this record instead of their own (see Network.Send).
// Each train entry consumed a sequence number when it was appended, so
// the burst dispatch in execute replays exactly the (at, seq) order the
// unbatched scheduler would have produced.
type event struct {
	at        time.Duration
	seq       uint64
	gen       uint64
	kind      eventKind
	cancelled bool
	fn        func()
	pkt       *Packet
	dst       IP
	train     *trainBox
}

// trainEntry is one extra delivery coalesced onto an open evDeliver
// event. Entries never get Timer handles and are never cancelled.
type trainEntry struct {
	pkt *Packet
	dst IP
}

// trainBox holds a train's entries behind one pointer, keeping the event
// record at a single cache line for the (overwhelmingly common) untrained
// case.
type trainBox struct {
	entries []trainEntry
}

// trainMax bounds how many deliveries one event record may carry, so
// pooled train slices stay cache-friendly and a pathological burst cannot
// grow one unbounded backing array.
const trainMax = 256

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

// heapify restores the heap property over the whole slice in O(n) — the
// bulk-load path collectSlot uses when it moves an entire wheel slot at
// once. (at, seq) keys are unique, so pop order is identical however the
// heap was built.
func (q *eventQueue) heapify() {
	h := *q
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// Timer is a cancellable handle to a scheduled event. The zero value is
// inert: Stop and Active on it are no-ops. Handles stay valid (and
// become inert) after the event fires or is cancelled, even though the
// underlying record is recycled — the generation check detects reuse.
type Timer struct {
	net *Network
	ev  *event
	gen uint64
}

// Stop prevents the timer from firing. Stopping an already-fired,
// already-stopped, or zero timer is a no-op. The callback is let go at
// once: the cancelled record stays queued until its slot comes round,
// and must not keep what the callback captured alive until then.
func (t Timer) Stop() {
	if t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled {
		t.ev.cancelled = true
		t.ev.fn = nil
		t.net.cancelledPending++
	}
}

// Active reports whether the timer is still scheduled to fire.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled
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

// freeEvent recycles a record. The generation bump invalidates any Timer
// handle still pointing at it. execute detaches trains before freeing;
// the defensive release here only matters if an unfired trained event is
// ever discarded (not possible today — deliveries are never cancelled).
func (n *Network) freeEvent(e *event) {
	if e.train != nil {
		n.freeTrain(e.train)
		e.train = nil
	}
	e.fn = nil
	e.pkt = nil
	e.cancelled = false
	e.gen++
	n.evFree = append(n.evFree, e)
}

// allocTrain takes a train box off the freelist (or allocates one).
func (n *Network) allocTrain() *trainBox {
	if k := len(n.trainFree); k > 0 {
		t := n.trainFree[k-1]
		n.trainFree = n.trainFree[:k-1]
		return t
	}
	return &trainBox{entries: make([]trainEntry, 0, 16)}
}

// freeTrain recycles a train box, dropping its packet references. One
// pool operation retires the whole burst — pool maintenance batches at
// the same granularity the deliveries did.
func (n *Network) freeTrain(t *trainBox) {
	for i := range t.entries {
		t.entries[i] = trainEntry{}
	}
	t.entries = t.entries[:0]
	n.trainFree = append(n.trainFree, t)
}

// scheduleEvent files e into the wheel, the current-slot heap, or the
// overflow heap. e.at must be >= the time of the last executed event.
func (n *Network) scheduleEvent(e *event) {
	// Filing any other event at the open train's instant would interleave
	// a sequence number between the train head and later appends, so the
	// train must stop accepting members to preserve (at, seq) order.
	if n.openTrain != nil && e.at == n.openAt && e != n.openTrain {
		n.openTrain = nil
	}
	slot := int64(e.at >> slotShift)
	switch {
	case slot <= n.curSlot:
		// Due in (or before) the cursor's slot — the cursor may run ahead
		// of the clock after idle jumps, so "before" is possible and the
		// heap ordering still executes these first.
		n.curHeap.push(e)
	case slot < n.curSlot+wheelSize:
		idx := int(slot & wheelMask)
		n.slots[idx] = append(n.slots[idx], e)
		n.occupied[idx>>6] |= 1 << (uint(idx) & 63)
	default:
		n.overflow.push(e)
	}
	n.queued++
}

// discard drops a cancelled event encountered during popping/migration.
// Deliveries are never cancelled, so e cannot be the open train today;
// the clear is defensive against that ever changing.
func (n *Network) discard(e *event) {
	if e == n.openTrain {
		n.openTrain = nil
	}
	n.queued--
	n.cancelledPending--
	n.freeEvent(e)
}

// nextEvent positions the next live event at the top of curHeap and
// returns it, draining cancelled events where they are popped. Returns
// nil when no events remain.
func (n *Network) nextEvent() *event {
	for {
		for len(n.curHeap) > 0 {
			e := n.curHeap[0]
			if e.cancelled {
				n.curHeap.pop()
				n.discard(e)
				continue
			}
			return e
		}
		if !n.advance() {
			return nil
		}
	}
}

// advance moves the cursor to the next non-empty slot (migrating
// overflow events that have come within the horizon) and loads it into
// curHeap. Returns false when the scheduler is empty.
func (n *Network) advance() bool {
	for n.queued > 0 {
		// Pull overflow events that now fit inside the wheel horizon.
		for len(n.overflow) > 0 {
			e := n.overflow[0]
			if int64(e.at>>slotShift) >= n.curSlot+wheelSize {
				break
			}
			n.overflow.pop()
			if e.cancelled {
				n.discard(e)
				continue
			}
			n.queued-- // scheduleEvent re-counts it
			n.scheduleEvent(e)
		}
		if len(n.curHeap) > 0 {
			return true
		}
		if k := n.nextOccupied(); k > 0 {
			n.curSlot += int64(k)
			n.collectSlot(int(n.curSlot & wheelMask))
			continue // curHeap is non-empty now; loop exits above
		}
		if len(n.overflow) == 0 {
			return false
		}
		// Wheel empty: jump the cursor to the overflow's first event. The
		// target index may hold stale cancelled events from a previous
		// lap; collect them now, because the bitmap scan never revisits
		// the cursor's own index.
		n.curSlot = int64(n.overflow[0].at >> slotShift)
		n.collectSlot(int(n.curSlot & wheelMask))
	}
	return false
}

// collectSlot moves every event parked at wheel index idx into curHeap
// and clears its occupancy bit. A slot cascading into an empty heap is
// bulk-loaded with one O(n) heapify instead of n O(log n) pushes —
// same batching granularity as packet trains, same resulting pop order.
func (n *Network) collectSlot(idx int) {
	if n.occupied[idx>>6]&(1<<(uint(idx)&63)) == 0 {
		return
	}
	if len(n.curHeap) == 0 && len(n.slots[idx]) > 4 {
		n.curHeap = append(n.curHeap, n.slots[idx]...)
		n.curHeap.heapify()
		for i := range n.slots[idx] {
			n.slots[idx][i] = nil
		}
	} else {
		for i, e := range n.slots[idx] {
			n.curHeap.push(e)
			n.slots[idx][i] = nil
		}
	}
	n.slots[idx] = n.slots[idx][:0]
	n.occupied[idx>>6] &^= 1 << (uint(idx) & 63)
}

// nextOccupied scans the occupancy bitmap circularly from the slot after
// the cursor and returns the offset (1..wheelSize-1) of the first
// occupied slot, or -1 if the wheel is empty.
func (n *Network) nextOccupied() int {
	base := int(n.curSlot) & wheelMask
	for k := 1; k < wheelSize; {
		idx := (base + k) & wheelMask
		word := n.occupied[idx>>6] >> (uint(idx) & 63)
		if word != 0 {
			k += bits.TrailingZeros64(word)
			if k >= wheelSize {
				return -1
			}
			return k
		}
		k += 64 - (idx & 63)
	}
	return -1
}

// syncCursor catches the cursor up after the clock jumped (Run hitting
// its deadline with no events left to execute before it). Only safe when
// every slot between the old cursor and the clock is known to hold no
// live events; callers guarantee that by having drained them first.
func (n *Network) syncCursor() {
	if target := int64(n.now >> slotShift); target > n.curSlot && len(n.curHeap) == 0 {
		// The target slot itself may hold events later than the clock
		// within the same slot; they must move to curHeap because this
		// index will not be reloaded during the current lap.
		n.curSlot = target
		n.collectSlot(int(target & wheelMask))
	}
}
