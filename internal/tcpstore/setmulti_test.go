package tcpstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/memcache"
	"repro/internal/netsim"
)

// storage-b shaped batch: the same record under both tuple orientations.
func twoEntries(i int) []Entry {
	v := []byte("flow-record")
	return []Entry{
		{Key: []byte(fmt.Sprintf("flow:c%d", i)), Value: v},
		{Key: []byte(fmt.Sprintf("flow:s%d", i)), Value: v},
	}
}

func TestSetMultiReplicatesEveryEntry(t *testing.T) {
	w := newSimWorld(21, 5, DefaultConfig()) // K=2
	var res SetResult
	done := false
	w.store.SetMulti(twoEntries(0), func(r SetResult) { res, done = r, true })
	w.net.RunUntilIdle(100000)
	if !done || res.Err != nil {
		t.Fatalf("SetMulti: done=%v res=%+v", done, res)
	}
	if res.Acked != 4 || res.Failed != 0 {
		t.Fatalf("acked=%d failed=%d, want 4/0 (2 entries × K=2)", res.Acked, res.Failed)
	}
	for _, e := range twoEntries(0) {
		holders := 0
		for _, srv := range w.servers {
			if _, ok := srv.Engine.Get(string(e.Key)); ok {
				holders++
			}
		}
		if holders != 2 {
			t.Fatalf("%s on %d servers, want 2", e.Key, holders)
		}
	}
	if w.store.Stats.BatchSets != 1 || w.store.Stats.BatchRecords != 2 {
		t.Fatalf("stats: %+v", w.store.Stats)
	}
}

func TestSetMultiOneBatchPerServer(t *testing.T) {
	// With 2 servers and K=2, both entries replicate to both servers: the
	// operation must reach each server as ONE mset carrying both records,
	// not two sets — the wire-level point of batching.
	w := newSimWorld(22, 2, DefaultConfig())
	done := false
	w.store.SetMulti(twoEntries(1), func(SetResult) { done = true })
	w.net.RunUntilIdle(100000)
	if !done {
		t.Fatal("SetMulti never resolved")
	}
	for _, srv := range w.servers {
		// An mset of n charges n ops (round trips are saved, not server
		// work), so per-record accounting is preserved.
		if srv.Ops != 2 {
			t.Fatalf("server ops = %d, want 2", srv.Ops)
		}
		for _, e := range twoEntries(1) {
			if _, ok := srv.Engine.Get(string(e.Key)); !ok {
				t.Fatalf("%s missing on a replica", e.Key)
			}
		}
	}
}

func TestSetMultiPartialFailureMarksUnrecoverableEntry(t *testing.T) {
	w := newSimWorld(23, 6, DefaultConfig())
	entries := twoEntries(2)
	// Kill both replicas of entry 0; keep entry 1's replicas alive (skip
	// the seed if the replica sets overlap).
	dead := map[string]bool{}
	for _, hp := range w.store.ring.PickInto(nil, entries[0].Key, 2) {
		dead[hp.String()] = true
	}
	for _, hp := range w.store.ring.PickInto(nil, entries[1].Key, 2) {
		if dead[hp.String()] {
			t.Skip("replica sets overlap for this seed")
		}
	}
	for _, hp := range w.store.ring.PickInto(nil, entries[0].Key, 2) {
		for _, srv := range w.servers {
			if srv.Host().IP() == hp.IP {
				srv.Host().Detach()
			}
		}
	}
	var res SetResult
	done := false
	w.store.SetMulti(entries, func(r SetResult) { res, done = r, true })
	w.net.RunFor(10 * time.Second)
	if !done {
		t.Fatal("SetMulti never resolved")
	}
	if res.Err != ErrAllReplicasFailed {
		t.Fatalf("err = %v, want ErrAllReplicasFailed (entry 0 on zero replicas)", res.Err)
	}
	if res.Acked < 2 {
		t.Fatalf("acked = %d, want entry 1's 2 replicas", res.Acked)
	}
}

func TestSetMultiAllDeadResolvesAtOpTimeout(t *testing.T) {
	w := newSimWorld(24, 2, DefaultConfig())
	for _, srv := range w.servers {
		srv.Host().Detach()
	}
	var res SetResult
	done := false
	start := w.net.Now()
	w.store.SetMulti(twoEntries(3), func(r SetResult) { res, done = r, true })
	w.net.RunFor(20 * time.Minute)
	if !done {
		t.Fatal("SetMulti never resolved")
	}
	if res.Err != ErrAllReplicasFailed || !res.TimedOut {
		t.Fatalf("res = %+v, want timeout with all replicas failed", res)
	}
	if elapsed := w.net.Now() - start; elapsed > 20*time.Minute {
		t.Fatalf("resolved after %v", elapsed)
	}
}

// TestSetMultiSplitsPastOneMSS: a store command never exceeds one MSS.
// Three 600-byte records bound for the one server do not fit one
// segment, so the batch goes as two commands — an mset of two, then a
// set — each its own round trip and each in whole segments, and the
// server is charged one op per record.
func TestSetMultiSplitsPastOneMSS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 1
	w := newSimWorld(26, 1, cfg)
	warm := false
	w.store.Set([]byte("warm"), []byte("x"), func(err error) { warm = err == nil })
	w.net.RunUntilIdle(100000)
	if !warm {
		t.Fatal("warm-up set failed")
	}
	var segments [][]byte
	w.net.SetTracer(func(ev netsim.TraceEvent) {
		if p := ev.Packet; p.Dst.Port == memcache.DefaultPort && len(p.Payload) > 0 {
			segments = append(segments, append([]byte(nil), p.Payload...))
		}
	})
	value := bytes.Repeat([]byte("v"), 600)
	entries := []Entry{{Key: []byte("rec:0"), Value: value}, {Key: []byte("rec:1"), Value: value}, {Key: []byte("rec:2"), Value: value}}
	srv := w.servers[0]
	rt0, ops0 := w.store.Stats.RoundTrips, srv.Ops
	var res SetResult
	done := false
	w.store.SetMulti(entries, func(r SetResult) { res, done = r, true })
	w.net.RunUntilIdle(100000)
	if !done || res.Err != nil || res.Acked != 3 || res.Failed != 0 {
		t.Fatalf("SetMulti: done=%v res=%+v", done, res)
	}
	if rt := w.store.Stats.RoundTrips - rt0; rt != 2 {
		t.Fatalf("%d round trips, want 2 (mset 2 + set)", rt)
	}
	if ops := srv.Ops - ops0; ops != 3 {
		t.Fatalf("server charged %d ops, want 3", ops)
	}
	for _, e := range entries {
		if _, ok := srv.Engine.Get(string(e.Key)); !ok {
			t.Fatalf("%s not stored", e.Key)
		}
	}
	// A fresh session executes each segment whole: no command starts in
	// one segment and ends in another.
	ops := 0
	for _, seg := range segments {
		sess := memcache.NewSession(memcache.NewEngine(0, w.net.Now))
		if resp := sess.Feed(seg); len(seg) > cfg.TCP.MSS || bytes.Contains(resp, []byte("ERROR")) {
			t.Fatalf("segment of %d bytes (MSS %d) answered %q", len(seg), cfg.TCP.MSS, resp)
		}
		ops += sess.Ops()
	}
	if len(segments) != 2 || ops != 3 {
		t.Fatalf("%d segments executing %d ops, want 2 and 3", len(segments), ops)
	}
}

func TestSetMultiEmpty(t *testing.T) {
	w := newSimWorld(25, 2, DefaultConfig())
	done := false
	w.store.SetMulti(nil, func(r SetResult) { done = r.Err == nil })
	if !done {
		t.Fatal("empty SetMulti must resolve synchronously with no error")
	}
}

// --- batched vs sequential storage-b benchmark ---

// benchStorageB drives storage-b shaped double-writes through the
// simulator and reports achieved virtual latency per write: batched
// issues one SetMulti (one round trip per replica server), sequential
// issues the seed's two independent Sets.
func benchStorageB(b *testing.B, batched bool) {
	w := newSimWorld(7, 3, DefaultConfig())
	// Warm the per-server connections so dial handshakes don't skew op 0.
	warm := false
	w.store.Set([]byte("warm"), []byte("x"), func(error) { warm = true })
	w.net.RunUntilIdle(100000)
	if !warm {
		b.Fatal("warmup write failed")
	}
	b.ResetTimer()
	virtStart := w.net.Now()
	roundTrips := 0
	for i := 0; i < b.N; i++ {
		entries := twoEntries(i)
		// Wire cost: batched sends one request per distinct replica
		// server; sequential sends one per key per replica.
		if batched {
			distinct := map[string]bool{}
			for _, e := range entries {
				for _, hp := range w.store.ring.PickInto(nil, e.Key, w.store.cfg.Replicas) {
					distinct[hp.String()] = true
				}
			}
			roundTrips += len(distinct)
		} else {
			for _, e := range entries {
				roundTrips += len(w.store.ring.PickInto(nil, e.Key, w.store.cfg.Replicas))
			}
		}
		done := false
		if batched {
			w.store.SetMulti(entries, func(SetResult) { done = true })
		} else {
			remaining := 2
			cb := func(error) {
				remaining--
				if remaining == 0 {
					done = true
				}
			}
			w.store.Set(entries[0].Key, entries[0].Value, cb)
			w.store.Set(entries[1].Key, entries[1].Value, cb)
		}
		w.net.RunUntilIdle(1 << 20)
		if !done {
			b.Fatal("write did not resolve")
		}
	}
	b.ReportMetric(float64((w.net.Now()-virtStart).Microseconds())/float64(b.N), "virtual-µs/write")
	b.ReportMetric(float64(roundTrips)/float64(b.N), "roundtrips/write")
}

func BenchmarkStorageBBatched(b *testing.B)    { benchStorageB(b, true) }
func BenchmarkStorageBSequential(b *testing.B) { benchStorageB(b, false) }
