package tcpstore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

func mkServers(n int) []netsim.HostPort {
	out := make([]netsim.HostPort, n)
	for i := range out {
		out[i] = netsim.HostPort{IP: netsim.IPv4(10, 0, 3, byte(i+1)), Port: memcache.DefaultPort}
	}
	return out
}

func TestRingPickDistinctReplicas(t *testing.T) {
	r := NewRing(mkServers(10))
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("flow:%d", i)
		picks := r.PickInto(nil, []byte(key), 3)
		if len(picks) != 3 {
			t.Fatalf("picked %d servers", len(picks))
		}
		seen := map[netsim.HostPort]bool{}
		for _, p := range picks {
			if seen[p] {
				t.Fatalf("duplicate replica for %s: %v", key, picks)
			}
			seen[p] = true
		}
	}
}

func TestRingPickDeterministic(t *testing.T) {
	servers := mkServers(10)
	a, b := NewRing(servers), NewRing(servers)
	f := func(key string) bool {
		pa, pb := a.PickInto(nil, []byte(key), 2), b.PickInto(nil, []byte(key), 2)
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRingKExceedsServers(t *testing.T) {
	r := NewRing(mkServers(2))
	picks := r.PickInto(nil, []byte("key"), 5)
	if len(picks) != 2 {
		t.Fatalf("picked %d, want all 2", len(picks))
	}
}

func TestRingEmptyAndZeroK(t *testing.T) {
	r := NewRing(nil)
	if r.PickInto(nil, []byte("k"), 2) != nil {
		t.Fatal("pick on empty ring")
	}
	r = NewRing(mkServers(3))
	if r.PickInto(nil, []byte("k"), 0) != nil {
		t.Fatal("pick with k=0")
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(mkServers(10))
	counts := map[netsim.HostPort]int{}
	const N = 20000
	for i := 0; i < N; i++ {
		for _, s := range r.PickInto(nil, []byte(fmt.Sprintf("key-%d", i)), 1) {
			counts[s]++
		}
	}
	for s, c := range counts {
		frac := float64(c) / N
		if frac < 0.05 || frac > 0.16 {
			t.Errorf("server %v holds fraction %.3f, want ~0.10", s, frac)
		}
	}
}

// searchOracle is what Ring.search did before its index: a binary search
// over the sorted points, wrapping to 0.
func searchOracle(r *Ring, h uint64) int {
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		return 0
	}
	return idx
}

// pickOracle is PickInto over searchOracle.
func pickOracle(r *Ring, key []byte, k int) []netsim.HostPort {
	k = min(k, len(r.servers))
	used := make([]bool, len(r.servers))
	var out []netsim.HostPort
	for replica := 0; len(out) < k; replica++ {
		idx := searchOracle(r, keyHash(key, replica))
		for tries := 0; tries < len(r.points); tries++ {
			if p := r.points[(idx+tries)%len(r.points)]; !used[p.server] {
				used[p.server] = true
				out = append(out, r.servers[p.server])
				break
			}
		}
	}
	return out
}

// TestRingPickMatchesBinarySearch: replica placement feeds the
// deterministic traces, so the indexed search must place every key where
// the binary search did — 10^5 random keys at every server count from 1
// to 10 — and land on the same point at every point's hash and its
// neighbours.
func TestRingPickMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	key := make([]byte, 34)
	var picked []netsim.HostPort
	for n := 1; n <= 10; n++ {
		r := NewRing(mkServers(n))
		if len(r.index) > 1024 {
			t.Fatalf("%d servers: index of %d entries, cap 1024", n, len(r.index))
		}
		for _, p := range r.points {
			for _, h := range []uint64{p.hash - 1, p.hash, p.hash + 1} {
				if got, want := r.search(h), searchOracle(r, h); got != want {
					t.Fatalf("%d servers: search(%#x) = %d, binary search %d", n, h, got, want)
				}
			}
		}
		for _, h := range []uint64{0, math.MaxUint64} {
			if got, want := r.search(h), searchOracle(r, h); got != want {
				t.Fatalf("%d servers: search(%#x) = %d, binary search %d", n, h, got, want)
			}
		}
		for i := 0; i < 100000; i++ {
			rng.Read(key)
			k := 1 + rng.Intn(3)
			picked = r.PickInto(picked[:0], key, k)
			if want := pickOracle(r, key, k); !slices.Equal(picked, want) {
				t.Fatalf("%d servers: key %x, K=%d: picked %v, binary search %v", n, key, k, picked, want)
			}
		}
	}
}

func TestRingMonotonicity(t *testing.T) {
	// Removing one server must not move keys between surviving servers.
	servers := mkServers(10)
	full := NewRing(servers)
	reduced := NewRing(servers[:9]) // drop the last
	removed := servers[9]
	moved, stayed := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.PickInto(nil, []byte(key), 1)[0]
		after := reduced.PickInto(nil, []byte(key), 1)[0]
		if before == removed {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %s moved %v -> %v though %v survived", key, before, after, before)
		}
		stayed++
	}
	if moved == 0 || stayed == 0 {
		t.Fatalf("degenerate test: moved=%d stayed=%d", moved, stayed)
	}
}

// --- store over simulated servers ---

type simWorld struct {
	net     *netsim.Network
	servers []*memcache.SimServer
	store   *Store
}

func newSimWorld(seed int64, nServers int, cfg Config) *simWorld {
	n := netsim.New(seed)
	w := &simWorld{net: n}
	var hps []netsim.HostPort
	for i := 0; i < nServers; i++ {
		h := netsim.NewHost(n, netsim.IPv4(10, 0, 3, byte(i+1)))
		srv := memcache.NewSimServer(h, memcache.DefaultPort, memcache.DefaultSimServerConfig())
		w.servers = append(w.servers, srv)
		hps = append(hps, netsim.HostPort{IP: h.IP(), Port: memcache.DefaultPort})
	}
	lbHost := netsim.NewHost(n, netsim.IPv4(10, 0, 1, 1))
	w.store = New(lbHost, hps, cfg)
	return w
}

func TestStoreSetGetDelete(t *testing.T) {
	w := newSimWorld(1, 4, DefaultConfig())
	var setErr error = fmt.Errorf("unset")
	w.store.Set([]byte("flow:abc"), []byte("tcp-state"), func(err error) { setErr = err })
	w.net.RunUntilIdle(100000)
	if setErr != nil {
		t.Fatalf("set: %v", setErr)
	}
	var got []byte
	var ok bool
	w.store.Get([]byte("flow:abc"), func(v []byte, o bool, err error) { got, ok = v, o })
	w.net.RunUntilIdle(100000)
	if !ok || string(got) != "tcp-state" {
		t.Fatalf("get: %q ok=%v", got, ok)
	}
	delDone := false
	w.store.Delete([]Entry{{Key: []byte("flow:abc")}}, func(err error) { delDone = err == nil })
	w.net.RunUntilIdle(100000)
	if !delDone {
		t.Fatal("delete failed")
	}
	miss := true
	w.store.Get([]byte("flow:abc"), func(v []byte, o bool, err error) { miss = !o })
	w.net.RunUntilIdle(100000)
	if !miss {
		t.Fatal("get after delete hit")
	}
}

func TestStoreReplicatesToKServers(t *testing.T) {
	w := newSimWorld(2, 5, DefaultConfig()) // K=2
	w.store.Set([]byte("key-r"), []byte("v"), func(error) {})
	w.net.RunUntilIdle(100000)
	holders := 0
	for _, srv := range w.servers {
		if _, ok := srv.Engine.Get("key-r"); ok {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("key on %d servers, want 2", holders)
	}
}

func TestStoreSurvivesOneReplicaFailure(t *testing.T) {
	w := newSimWorld(3, 4, DefaultConfig())
	ok := false
	w.store.Set([]byte("flow:x"), []byte("state"), func(err error) { ok = err == nil })
	w.net.RunUntilIdle(100000)
	if !ok {
		t.Fatal("set failed")
	}
	// Kill exactly one of the two replica servers.
	replicas := w.store.ring.PickInto(nil, []byte("flow:x"), 2)
	for _, srv := range w.servers {
		if srv.Host().IP() == replicas[0].IP {
			srv.Host().Detach()
		}
	}
	var got []byte
	found := false
	done := false
	w.store.Get([]byte("flow:x"), func(v []byte, o bool, err error) { got, found, done = v, o, true })
	// Allow time for the dead replica's connection to fail over.
	w.net.RunFor(10 * time.Minute)
	if !done {
		t.Fatal("get never completed")
	}
	if !found || string(got) != "state" {
		t.Fatalf("state lost after single replica failure: %q found=%v", got, found)
	}
}

// TestDeleteUnderReplicaFailure pins what Delete reports when replicas
// do not answer: success at OpTimeout if any replica did (and that is
// not a partial write), ErrAllReplicasFailed if none, replies that
// straggle in after the verdict change nothing, and the operation state
// they return to the pool serves the next Delete.
func TestDeleteUnderReplicaFailure(t *testing.T) {
	w := newSimWorld(6, 4, DefaultConfig())
	key := []byte("flow:x")
	replicas := w.store.ring.PickInto(nil, key, 2)
	kill := func(hp netsim.HostPort) {
		for _, srv := range w.servers {
			if srv.Host().IP() == hp.IP {
				srv.Host().Detach()
			}
		}
	}
	del := func() (err error, at time.Duration) {
		done := false
		start := w.net.Now()
		w.store.Delete([]Entry{{Key: key}}, func(e error) { err, at, done = e, w.net.Now()-start, true })
		w.net.RunFor(20 * time.Minute) // long enough for dead conns to give up
		if !done {
			t.Fatal("delete never resolved")
		}
		return err, at
	}
	if err, at := del(); err != nil || at >= time.Second {
		t.Fatalf("healthy delete: %v after %v", err, at)
	}
	kill(replicas[0])
	if err, at := del(); err != nil || at != time.Second {
		t.Fatalf("one replica dead: %v after %v, want nil at OpTimeout", err, at)
	}
	if st := w.store.Stats; st.Timeouts != 1 || st.PartialWrites != 0 || st.ReplicaErrors != 0 {
		t.Fatalf("stats after a half-answered delete: %+v", st)
	}
	kill(replicas[1])
	if err, at := del(); err != ErrAllReplicasFailed || at != time.Second {
		t.Fatalf("both replicas dead: %v after %v, want ErrAllReplicasFailed at OpTimeout", err, at)
	}
	if st := w.store.Stats; st.Timeouts != 2 || st.Deletes != 3 || st.RoundTrips != 6 || st.PartialWrites != 0 {
		t.Fatalf("stats after three deletes: %+v", st)
	}
}

// replicaUnion returns the servers holding any of entries' replicas, and
// those holding a replica of every entry.
func replicaUnion(w *simWorld, entries []Entry) (union, shared []netsim.HostPort) {
	count := map[netsim.HostPort]int{}
	for _, e := range entries {
		for _, hp := range w.store.ring.PickInto(nil, e.Key, w.store.cfg.Replicas) {
			if count[hp] == 0 {
				union = append(union, hp)
			}
			count[hp]++
		}
	}
	for _, hp := range union {
		if count[hp] == len(entries) {
			shared = append(shared, hp)
		}
	}
	return union, shared
}

// TestDeleteBatchOverlappingReplicas: a Delete of two keys whose replica
// sets overlap costs one command per server of their union, reports
// once, and leaves neither key on any replica.
func TestDeleteBatchOverlappingReplicas(t *testing.T) {
	w := newSimWorld(27, 3, DefaultConfig()) // K=2 of 3: any two replica sets overlap
	entries := twoEntries(7)
	stored := false
	w.store.SetMulti(entries, func(r SetResult) { stored = r.Err == nil && r.Failed == 0 })
	w.net.RunUntilIdle(100000)
	union, shared := replicaUnion(w, entries)
	if !stored || len(shared) == 0 {
		t.Fatalf("stored=%v, %d shared replica servers: want a clean write and an overlap", stored, len(shared))
	}
	rt0 := w.store.Stats.RoundTrips
	calls := 0
	var err error
	w.store.Delete(entries, func(e error) { calls, err = calls+1, e })
	w.net.RunUntilIdle(100000)
	if calls != 1 || err != nil {
		t.Fatalf("callback ran %d times, last error %v", calls, err)
	}
	if rt := w.store.Stats.RoundTrips - rt0; rt != uint64(len(union)) {
		t.Fatalf("%d round trips, want %d (|R1 ∪ R2|)", rt, len(union))
	}
	for _, srv := range w.servers {
		for _, e := range entries {
			if _, ok := srv.Engine.Get(string(e.Key)); ok {
				t.Fatalf("%s survived the delete on %v", e.Key, srv.Host().IP())
			}
		}
	}
	if st := w.store.Stats; st.ReplicaErrors != 0 || st.PartialWrites != 0 || st.Deletes != 1 {
		t.Fatalf("stats after a clean batch delete: %+v", st)
	}
}

// TestDeleteBatchLosesOneReplica: when the server both keys share dies
// with their delete command in flight, the Delete still reports exactly
// once (each key's other replica answered), its operation state goes back
// to the pools, and ReplicaErrors counts each key of the lost command
// once.
func TestDeleteBatchLosesOneReplica(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OpTimeout = 0 // resolve by the connection's failure, not at the bound
	w := newSimWorld(28, 3, cfg)
	entries := twoEntries(8)
	w.store.SetMulti(entries, func(SetResult) {})
	w.net.RunUntilIdle(100000)
	_, shared := replicaUnion(w, entries)
	if len(shared) == 0 {
		t.Fatal("no server holds both keys")
	}
	freeOps := len(w.store.freeOps)
	calls := 0
	var err error
	w.store.Delete(entries, func(e error) { calls, err = calls+1, e })
	for _, srv := range w.servers {
		if srv.Host().IP() == shared[0].IP {
			srv.Host().Detach()
		}
	}
	w.net.RunFor(20 * time.Minute) // long enough for the dead conn to give up
	if calls != 1 || err != nil {
		t.Fatalf("callback ran %d times, last error %v: want once, nil", calls, err)
	}
	if st := w.store.Stats; st.ReplicaErrors != 2 || st.PartialWrites != 0 || st.Timeouts != 0 {
		t.Fatalf("stats after losing one command of two keys: %+v", st)
	}
	if len(w.store.freeOps) != freeOps {
		t.Fatalf("%d pooled ops after the delete, %d before: its state leaked", len(w.store.freeOps), freeOps)
	}
}

func TestStoreAllReplicasDead(t *testing.T) {
	w := newSimWorld(4, 2, DefaultConfig())
	for _, srv := range w.servers {
		srv.Host().Detach()
	}
	var err error
	done := false
	w.store.Set([]byte("k"), []byte("v"), func(e error) { err, done = e, true })
	w.net.RunFor(20 * time.Minute)
	if !done {
		t.Fatal("set never resolved")
	}
	if err != ErrAllReplicasFailed {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreNoServers(t *testing.T) {
	n := netsim.New(5)
	h := netsim.NewHost(n, netsim.IPv4(10, 0, 1, 1))
	st := New(h, nil, DefaultConfig())
	var setErr, getErr error
	gotOK := true
	st.Set([]byte("k"), []byte("v"), func(e error) { setErr = e })
	st.Get([]byte("k"), func(v []byte, ok bool, e error) { gotOK, getErr = ok, e })
	if setErr != ErrAllReplicasFailed || getErr != ErrAllReplicasFailed || gotOK {
		t.Fatalf("empty store: %v %v %v", setErr, getErr, gotOK)
	}
}

func TestStoreReplica1IsPlainMemcached(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 1
	w := newSimWorld(6, 4, cfg)
	w.store.Set([]byte("k"), []byte("v"), func(error) {})
	w.net.RunUntilIdle(100000)
	holders := 0
	for _, srv := range w.servers {
		if _, ok := srv.Engine.Get("k"); ok {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("key on %d servers, want 1", holders)
	}
}

func TestStoreParallelReplicaWritesOverlap(t *testing.T) {
	// With replication the two replica writes go out concurrently, so the
	// latency should be roughly one op RTT, not two (this is the ≤24%
	// overhead claim of Figure 10).
	runOne := func(replicas int) time.Duration {
		cfg := DefaultConfig()
		cfg.Replicas = replicas
		w := newSimWorld(7, 10, cfg)
		var lat time.Duration
		w.store.TimedSet([]byte("k"), []byte("v"), func(l time.Duration, err error) { lat = l })
		w.net.RunUntilIdle(1000000)
		return lat
	}
	lat1 := runOne(1)
	lat2 := runOne(2)
	if lat1 <= 0 || lat2 <= 0 {
		t.Fatalf("latencies not measured: %v %v", lat1, lat2)
	}
	// Allow the replicated op up to 50% overhead (paper observed <24%).
	if float64(lat2) > 1.5*float64(lat1) {
		t.Fatalf("replication not parallel: K=1 %v vs K=2 %v", lat1, lat2)
	}
}

func TestStoreSetServersClosesRemoved(t *testing.T) {
	w := newSimWorld(8, 4, DefaultConfig())
	w.store.Set([]byte("k"), []byte("v"), func(error) {})
	w.net.RunUntilIdle(100000)
	if len(w.store.conns) == 0 {
		t.Fatal("no connections opened")
	}
	// Shrink to one server.
	keep := []netsim.HostPort{{IP: w.servers[0].Host().IP(), Port: memcache.DefaultPort}}
	w.store.SetServers(keep)
	for hp := range w.store.conns {
		if hp != keep[0] {
			t.Fatalf("connection to removed server %v retained", hp)
		}
	}
	if n := len(w.store.ring.servers); n != 1 {
		t.Fatalf("ring size = %d", n)
	}
}

func TestStoreStats(t *testing.T) {
	w := newSimWorld(9, 3, DefaultConfig())
	w.store.Set([]byte("a"), []byte("1"), func(error) {})
	w.net.RunUntilIdle(100000)
	w.store.Get([]byte("a"), func([]byte, bool, error) {})
	w.store.Get([]byte("missing"), func([]byte, bool, error) {})
	w.net.RunUntilIdle(100000)
	st := w.store.Stats
	if st.Sets != 1 || st.Gets != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestStoreExpiryAges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Expiry = 1 // 1 second TTL
	w := newSimWorld(10, 3, cfg)
	w.store.Set([]byte("k"), []byte("v"), func(error) {})
	w.net.RunUntilIdle(100000)
	w.net.RunFor(2 * time.Second)
	found := true
	w.store.Get([]byte("k"), func(v []byte, ok bool, err error) { found = ok })
	w.net.RunUntilIdle(100000)
	if found {
		t.Fatal("entry did not expire")
	}
}

var _ = tcp.DefaultConfig // keep import if unused paths change
