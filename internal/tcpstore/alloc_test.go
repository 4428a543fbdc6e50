package tcpstore

import (
	"testing"

	"repro/internal/netsim"
)

// TestSetMultiAllocFree locks in the batched write path's alloc budget:
// with warm pools (multi-ops, batch states, pick buffers, client scratch,
// server sessions, engine nodes, event records), a storage-b shaped
// SetMulti — two entries replicated K ways, grouped per server, carried
// over simulated TCP, stored, and resolved — allocates nothing.
func TestSetMultiAllocFree(t *testing.T) {
	w := newSimWorld(21, 5, DefaultConfig()) // K=2
	value := make([]byte, 90)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	entries := []Entry{
		{Key: []byte("yoda:f:c0a80001:9c40:0a0000fe:0050"), Value: value},
		{Key: []byte("yoda:f:0a000020:1f90:0a0000fe:4e21"), Value: value},
	}
	done := false
	cb := func(SetResult) { done = true }
	op := func() {
		done = false
		w.store.SetMulti(entries, cb)
		// Drain everything, including the cancelled op-timeout and TCP
		// retransmit records, so pooled resources recycle inside the run —
		// as they do continuously in a long-running instance.
		w.net.RunUntilIdle(1 << 20)
		if !done {
			t.Fatal("SetMulti did not resolve")
		}
	}
	for i := 0; i < 64; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Fatalf("SetMulti allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSetAllocFree: Set is the one-entry case of the same recycled
// operation state — fanned out to K replicas as plain sets over simulated
// TCP, stored, resolved — and, warm, allocates nothing. It counts as a
// Set, not as a batch.
func TestSetAllocFree(t *testing.T) {
	w := newSimWorld(23, 5, DefaultConfig()) // K=2
	key := []byte("yoda:f:c0a80001:9c40:0a0000fe:0050")
	value := make([]byte, 90)
	var got error
	calls := 0
	cb := func(err error) { got = err; calls++ }
	op := func() {
		w.store.Set(key, value, cb)
		w.net.RunUntilIdle(1 << 20)
	}
	for i := 0; i < 64; i++ {
		op()
	}
	if calls != 64 || got != nil {
		t.Fatalf("%d of 64 sets reported, last error %v", calls, got)
	}
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Fatalf("Set allocates %.1f objects/op, want 0", allocs)
	}
	if st := w.store.Stats; st.Sets != 64+101 || st.RoundTrips != 2*st.Sets || st.BatchSets != 0 || st.BatchRecords != 0 || st.PartialWrites != 0 || st.ReplicaErrors != 0 {
		t.Fatalf("stats after the sets: %+v", st)
	}
	for _, srv := range w.servers {
		if st := srv.Engine.Stats(); st.Sets != 0 && st.Sets != 64+101 {
			t.Fatalf("a replica stored %d of %d sets", st.Sets, 64+101)
		}
	}
}

// TestDeleteAllocFree: a flow teardown deletes its two records in one
// Delete, which runs on the same recycled operation state as SetMulti —
// grouped into one pipelined command per replica server, carried over
// simulated TCP, answered, resolved — and, warm, allocates nothing, in
// its two-key and one-key forms, with or without a callback.
func TestDeleteAllocFree(t *testing.T) {
	w := newSimWorld(22, 5, DefaultConfig()) // K=2
	keys := []Entry{
		{Key: []byte("yoda:f:c0a80001:9c40:0a0000fe:0050")},
		{Key: []byte("yoda:f:0a000020:1f90:0a0000fe:4e21")},
	}
	union := map[netsim.HostPort]bool{}
	for _, e := range keys {
		for _, hp := range w.store.ring.PickInto(nil, e.Key, 2) {
			union[hp] = true
		}
	}
	var got error
	calls := 0
	cb := func(err error) { got = err; calls++ }
	op := func() {
		w.store.Delete(keys, cb)
		w.store.Delete(keys[:1], nil)
		w.net.RunUntilIdle(1 << 20)
	}
	for i := 0; i < 64; i++ {
		op()
	}
	if calls != 64 || got != nil {
		t.Fatalf("%d of 64 deletes reported, last error %v", calls, got)
	}
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Fatalf("two Deletes allocate %.1f objects, want 0", allocs)
	}
	// Per round: one command to each server of the two keys' replica
	// sets, then one to each replica of the first key.
	if st := w.store.Stats; st.Deletes != 2*(64+101) || st.RoundTrips != uint64(len(union)+2)*(64+101) || st.PartialWrites != 0 || st.ReplicaErrors != 0 {
		t.Fatalf("stats after the deletes (replica servers of both keys: %d): %+v", len(union), st)
	}
}
