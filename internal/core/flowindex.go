package core

import (
	"repro/internal/flowmap"
	"repro/internal/netsim"
)

// flowIndex is the instance's tuple → *flow lookup structure: a compact
// flowmap keyed by tuple whose values are indices into a slot store of
// flow pointers. Compared with the former map[FourTuple]*flow it keeps
// the per-entry cost at flowmap's ~16–20 bytes (no map header buckets
// holding 12-byte keys) and makes the per-packet lookup a two-cache-line
// probe.
//
// Exactness: flowmap hits are validated against the flow's own tuples
// (clientTuple/serverTuple), so a 64-bit tag alias — the structure's
// documented false-hit mode — degrades to a miss here, never to a wrong
// flow. The instance therefore keeps exactly the map's semantics on the
// dispatch path; SYN handling and TCPStore recovery still never depend
// on a maybe-hit.
//
// A flow occupies one slot regardless of how many tuple orientations
// point at it (client-side always, server-side once dialing, and a
// keep-alive switch's old server side until its commit); the slot
// is freed when its last tuple entry is removed. Slot allocation is
// free-list based, so steady-state churn neither allocates nor grows
// the store, and slot order — the iteration order of forEach — is
// deterministic for a deterministic workload.
type flowIndex struct {
	tab   *flowmap.Compact
	slots []*flow
	free  []uint32
	// version increments on every mutation (put/del/init). The batch
	// dispatch path caches a (tuple, flow) resolution across a run and
	// revalidates it against version, so a teardown or re-key mid-run
	// can never route a packet to a stale flow.
	version uint64
}

func (x *flowIndex) init() {
	x.tab = flowmap.NewCompact(0)
	x.slots = nil
	x.free = nil
	x.version++
}

// entries returns the number of live tuple entries (both orientations),
// the equivalent of len() on the former map.
func (x *flowIndex) entries() int { return x.tab.Len() }

// get returns the flow indexed under t, or nil. Hits are validated
// against the flow's tuples, restoring map-exact lookups.
func (x *flowIndex) get(t netsim.FourTuple) *flow {
	v, hit := x.tab.LookupMaybe(t)
	if !hit {
		return nil
	}
	f := x.slots[v]
	if f == nil {
		return nil
	}
	if t == f.clientTuple() || (f.server.IP != 0 && t == f.serverTuple()) ||
		(f.oldServerIP != 0 && t == f.oldServerTuple()) {
		return f
	}
	return nil // tag alias: treat as a miss
}

// put indexes f under t, assigning f a slot on first use.
func (x *flowIndex) put(t netsim.FourTuple, f *flow) {
	x.version++
	if v, hit := x.tab.LookupMaybe(t); hit {
		prev := x.slots[v]
		if prev == f {
			return // already indexed under t
		}
		if prev != nil {
			// t re-keyed to a different flow: the overwrite drops prev's
			// entry, so settle its slot accounting.
			x.unref(v, prev)
		}
	}
	if f.idxSlot == 0 {
		var v uint32
		if n := len(x.free); n > 0 {
			v = x.free[n-1]
			x.free = x.free[:n-1]
			x.slots[v] = f
		} else {
			v = uint32(len(x.slots))
			x.slots = append(x.slots, f)
		}
		f.idxSlot = v + 1
	}
	x.tab.Insert(t, flowmap.Value(f.idxSlot-1))
	f.idxRefs++
}

// del removes t's entry if — and only if — it indexes f, mirroring the
// former `if in.flows[t] == f { delete(in.flows, t) }` idiom every
// caller used.
func (x *flowIndex) del(t netsim.FourTuple, f *flow) {
	v, hit := x.tab.LookupMaybe(t)
	if !hit || x.slots[v] != f {
		return
	}
	x.version++
	x.tab.Delete(t)
	x.unref(v, f)
}

func (x *flowIndex) unref(v flowmap.Value, f *flow) {
	f.idxRefs--
	if f.idxRefs == 0 {
		x.slots[v] = nil
		x.free = append(x.free, uint32(v))
		f.idxSlot = 0
	}
}

// forEach visits every live flow exactly once (not once per tuple
// orientation), in deterministic slot order. The callback must not
// mutate the index; collect victims first, as all callers do.
func (x *flowIndex) forEach(fn func(*flow)) {
	for _, f := range x.slots {
		if f != nil {
			fn(f)
		}
	}
}
