package flowmap

import "repro/internal/netsim"

// Table is the flow-mapping contract shared by the compact structure
// and the plain-map reference oracle; only the differential tests and
// benchmarks need to treat the two alike.
type Table interface {
	// Insert maps ft to v, overwriting any existing entry for ft.
	// It reports false only when the implementation cannot place the
	// entry (Compact grows instead, so it always reports true).
	Insert(ft netsim.FourTuple, v Value) bool

	// LookupMaybe returns the value stored for ft. The result is
	// authoritative for inserted tuples; for tuples never inserted a
	// compact implementation MAY return a false hit (see the package
	// comment). Callers must validate or be positioned so a false hit
	// is benign — the method name is the reminder.
	LookupMaybe(ft netsim.FourTuple) (Value, bool)

	// Delete removes ft's entry, reporting whether a live entry was
	// removed. Deleting a tuple that was never inserted may, with the
	// same aliasing probability as a false hit, remove another tuple's
	// entry — only delete tuples you inserted.
	Delete(ft netsim.FourTuple) bool

	// EvictValue invalidates every live entry currently mapping to v
	// in O(1) and bumps the table epoch. Entries inserted afterwards
	// with the same value are valid.
	EvictValue(v Value)

	// Len returns the number of live entries (insertions minus
	// deletions minus entries invalidated by EvictValue).
	Len() int

	// Epoch returns the number of eviction bumps applied, a version
	// counter observers can use to detect backend-set changes.
	Epoch() uint64
}

// Compile-time interface checks.
var (
	_ Table = (*Compact)(nil)
	_ Table = (*Map)(nil)
)

// Map is the plain-Go-map reference implementation of Table: exact
// (its LookupMaybe never false-hits, since the full tuple is the key)
// and linear in memory. It lives in test code as the differential
// oracle for Compact — the flowmap analogue of the rules package's
// SelectLinear and memcache's ReferenceSession — and as the baseline
// the memory and lookup benchmarks compare against.
type Map struct {
	m     map[netsim.FourTuple]Value
	epoch uint64
}

// NewMap returns an empty reference table.
func NewMap() *Map {
	return &Map{m: make(map[netsim.FourTuple]Value)}
}

// Insert maps ft to v.
func (t *Map) Insert(ft netsim.FourTuple, v Value) bool {
	t.m[ft] = v
	return true
}

// LookupMaybe returns the value stored for ft. For Map the "maybe" is
// exact: a hit is returned only for inserted tuples.
func (t *Map) LookupMaybe(ft netsim.FourTuple) (Value, bool) {
	v, ok := t.m[ft]
	return v, ok
}

// Delete removes ft's entry.
func (t *Map) Delete(ft netsim.FourTuple) bool {
	if _, ok := t.m[ft]; !ok {
		return false
	}
	delete(t.m, ft)
	return true
}

// EvictValue removes every entry mapping to v — the O(n) scan the
// compact structure's generation bump replaces.
func (t *Map) EvictValue(v Value) {
	t.epoch++
	for ft, have := range t.m {
		if have == v {
			delete(t.m, ft)
		}
	}
}

// Len returns the number of live entries.
func (t *Map) Len() int { return len(t.m) }

// Epoch returns the eviction-bump count.
func (t *Map) Epoch() uint64 { return t.epoch }
