package memcache

// This file keeps the engine's map + intrusive-node implementation from
// before the slab layout, unchanged but for its name. It is test code: the
// oracle TestEngineDifferential holds Engine to, operation by operation,
// and the engine ReferenceSession drives in the session differential
// tests.

import "time"

// node is one stored item with the LRU list embedded in the struct
// (intrusive doubly-linked list): no container/list element allocation
// per item, and evicted nodes park on a free list so steady-state churn
// reuses both the struct and its value buffer.
type node struct {
	key     string
	value   []byte
	flags   uint32
	expires time.Duration

	prev, next *node
}

// Free-list bounds: parked nodes beyond maxFreeNodes are dropped to the
// GC, and a recycled node's value buffer is released when it is large
// enough that pinning it would outweigh the realloc it saves.
const (
	maxFreeNodes    = 4096
	maxFreeValueCap = 64 << 10
)

// refEngine is the storage engine as it was before the slab layout: a
// hash map with LRU eviction under a memory cap. It is not safe for concurrent use; every caller runs on
// the one netsim event loop.
//
// Each operation is written once, on the *node a map lookup returned
// (hit, store, remove); the string-keyed Get/Set/Delete and the
// byte-keyed forms the protocol session calls differ only in that lookup.
type refEngine struct {
	items    map[string]*node
	head     *node // most recently used
	tail     *node // least recently used
	free     *node // recycled nodes, chained via next
	nFree    int
	maxBytes int
	used     int
	now      func() time.Duration
	stats    Stats
}

// newRefEngine creates an engine with the given memory cap in bytes (<=0
// means unlimited) and clock: inside netsim pass the network's Now; nil
// means wall time since creation.
func newRefEngine(maxBytes int, now func() time.Duration) *refEngine {
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	return &refEngine{
		items:    make(map[string]*node),
		maxBytes: maxBytes,
		now:      now,
	}
}

func nodeSize(n *node) int { return len(n.key) + len(n.value) + 64 }

// expired reports whether n is past its expiry.
func (e *refEngine) expired(n *node) bool { return n.expires > 0 && e.now() >= n.expires }

// --- intrusive LRU list ---

func (e *refEngine) pushFront(n *node) {
	n.prev = nil
	n.next = e.head
	if e.head != nil {
		e.head.prev = n
	}
	e.head = n
	if e.tail == nil {
		e.tail = n
	}
}

func (e *refEngine) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		e.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		e.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (e *refEngine) moveToFront(n *node) {
	if e.head == n {
		return
	}
	e.unlink(n)
	e.pushFront(n)
}

// newNode pops a recycled node (value capacity retained) or allocates.
func (e *refEngine) newNode() *node {
	if n := e.free; n != nil {
		e.free = n.next
		e.nFree--
		n.next = nil
		return n
	}
	return &node{}
}

// freeNode parks a removed node for reuse, dropping its key reference
// (the map no longer holds it) but keeping the value buffer's capacity.
func (e *refEngine) freeNode(n *node) {
	n.key = ""
	n.prev = nil
	if e.nFree >= maxFreeNodes {
		n.next = nil
		return
	}
	if cap(n.value) > maxFreeValueCap {
		n.value = nil
	} else {
		n.value = n.value[:0]
	}
	n.next = e.free
	e.free = n
	e.nFree++
}

// --- the operations, each on the node a map lookup returned (nil = absent) ---

// hit is a get: it counts the hit or miss, drops an expired node, bumps a
// live one to the front of the LRU list and returns it (nil on a miss).
func (e *refEngine) hit(n *node) *node {
	if n != nil && e.expired(n) {
		e.drop(n)
		e.stats.Expirations++
		n = nil
	}
	if n == nil {
		e.stats.GetMisses++
		return nil
	}
	e.moveToFront(n)
	e.stats.GetHits++
	return n
}

// insert adds an empty node under key; store fills it.
func (e *refEngine) insert(key string) *node {
	n := e.newNode()
	n.key = key
	e.items[key] = n
	e.pushFront(n)
	e.used += nodeSize(n)
	return n
}

// store is a set: it copies value into n (reusing n's buffer), makes n the
// most recently used and evicts from the cold end down to the byte cap.
func (e *refEngine) store(n *node, value []byte, flags uint32, expires time.Duration) {
	e.used -= nodeSize(n)
	n.value = append(n.value[:0], value...)
	n.flags = flags
	n.expires = expires
	e.used += nodeSize(n)
	e.moveToFront(n)
	for e.maxBytes > 0 && e.used > e.maxBytes && e.tail != nil {
		e.drop(e.tail)
		e.stats.Evictions++
	}
	e.stats.Sets++
}

// remove is a delete: it reports whether n was present and unexpired.
func (e *refEngine) remove(n *node) bool {
	if n == nil {
		return false
	}
	expired := e.expired(n)
	e.drop(n)
	if expired {
		e.stats.Expirations++
	} else {
		e.stats.Deletes++
	}
	return !expired
}

// drop unlinks n from the map and the list and parks it for reuse.
func (e *refEngine) drop(n *node) {
	e.used -= nodeSize(n)
	delete(e.items, n.key)
	e.unlink(n)
	e.freeNode(n)
}

// --- entry points: string keys for callers, byte keys for the session ---

// Get returns a copy of the item stored under key, or ok=false.
func (e *refEngine) Get(key string) (Item, bool) {
	n := e.hit(e.items[key])
	if n == nil {
		return Item{}, false
	}
	return Item{Key: n.key, Value: append([]byte(nil), n.value...), Flags: n.flags, Expires: n.expires}, true
}

// Set unconditionally stores the item.
func (e *refEngine) Set(it Item) {
	n := e.items[it.Key]
	if n == nil {
		n = e.insert(it.Key)
	}
	e.store(n, it.Value, it.Flags, it.Expires)
}

// Delete removes key, reporting whether it was present.
func (e *refEngine) Delete(key string) bool { return e.remove(e.items[key]) }

// getBytes, setBytes and deleteBytes take keys and values sliced out of a
// protocol buffer. A map index by string(key) does not allocate; the
// conversion in setBytes' insert is the one copy a new key costs.
func (e *refEngine) getBytes(key []byte) *node { return e.hit(e.items[string(key)]) }

func (e *refEngine) setBytes(key, value []byte, flags uint32, expires time.Duration) {
	n := e.items[string(key)]
	if n == nil {
		n = e.insert(string(key))
	}
	e.store(n, value, flags, expires)
}

func (e *refEngine) deleteBytes(key []byte) bool { return e.remove(e.items[string(key)]) }

// Stats returns a snapshot of the counters.
func (e *refEngine) Stats() Stats {
	s := e.stats
	s.CurrItems = len(e.items)
	s.BytesUsed = e.used
	return s
}
