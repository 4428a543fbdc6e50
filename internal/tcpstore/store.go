package tcpstore

import (
	"errors"
	"sort"
	"time"

	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

// ErrAllReplicasFailed is reported when no replica server accepted an
// operation.
var ErrAllReplicasFailed = errors.New("tcpstore: all replicas failed")

// Config tunes a TCPStore client.
type Config struct {
	// Replicas is K, the number of Memcached servers each key is stored
	// on. The paper's persistence experiments use 2; 1 degenerates to
	// plain Memcached (the Figure 10/11 baseline).
	Replicas int
	// Expiry is the TTL in seconds attached to flow-state entries; flows
	// that die without cleanup age out. 0 disables expiry.
	Expiry int
	// OpTimeout bounds how long an operation waits for replica replies
	// before resolving with whatever has answered: a dead Memcached
	// server must not wedge load balancing until TCP gives up on it
	// (the controller's monitor replaces dead servers within 600 ms, but
	// in-flight operations need their own bound). 0 disables the timeout.
	OpTimeout time.Duration
	TCP       tcp.Config
}

// DefaultConfig matches the paper's deployment: 2 replicas (a write waits
// for both: the paper ACKs the client only after the state is persisted),
// 10-minute TTL as a leak backstop, 1 s operation bound.
func DefaultConfig() Config {
	return Config{Replicas: 2, Expiry: 600, OpTimeout: time.Second, TCP: tcp.DefaultConfig()}
}

// Stats counts client-side operation outcomes.
type Stats struct {
	Sets, Gets, Deletes uint64
	// BatchSets counts SetMulti operations; BatchRecords the records
	// they carried (records ÷ ops is the achieved batching factor).
	BatchSets    uint64
	BatchRecords uint64
	// PartialWrites counts operations that resolved with a record stored
	// on some but not all of its replicas (recoverable, but degraded).
	PartialWrites uint64
	Hits, Misses  uint64
	ReplicaErrors uint64
	Timeouts      uint64
	// RoundTrips counts wire commands issued: one per replica server per
	// op (a Set, SetMulti or Delete sends each server its keys map to one
	// command, a second only past one MSS; a Get asks every replica).
	// Divided by flows served, this is the "store round-trips per flow"
	// cost line the hybrid recovery mode exists to shrink.
	RoundTrips uint64
}

// Entry is one record of a batched write. Key and Value may alias caller
// scratch: SetMulti encodes every record into connection buffers before
// returning, so neither slice is read after the call.
type Entry struct {
	Key   []byte
	Value []byte
}

// SetResult is the resolved outcome of a batched write: the per-op
// counters the dataplane's write barrier consumes.
type SetResult struct {
	// Err is nil when every record is recoverable (stored on at least
	// one replica by resolution time).
	Err error
	// Acked and Failed count replica-level write outcomes across all
	// records of the operation.
	Acked, Failed int
	// TimedOut reports that the operation resolved at OpTimeout instead
	// of by replica replies.
	TimedOut bool
}

// Store is a TCPStore client bound to one Yoda instance's host. It keeps
// one long-lived connection per Memcached server (lazily opened) and
// fans each operation out to the key's K replicas in parallel.
type Store struct {
	host  *netsim.Host
	cfg   Config
	ring  *Ring
	conns map[netsim.HostPort]*memcache.SimClient

	// Steady-state scratch. The store runs on the single-threaded netsim
	// event loop, so reuse needs no locking — but an operation callback
	// may synchronously start another operation, so replica lists live in
	// a take/put pool rather than a single buffer, and multi-op state is
	// recycled only once every batch reply has been delivered.
	pickBufs [][]netsim.HostPort
	freeOps  []*multiOp
	freeBats []*batchState

	Stats Stats
}

// multiOp is the pooled in-flight state of one Set, SetMulti or Delete.
// Set is the one-entry write and reports through errCb. A Delete reports
// through errCb too (which may then be nil): every replica must answer,
// a reply acks every key of its command, and an answer short of all
// replicas is not a partial write.
type multiOp struct {
	store     *Store
	del       bool
	errCb     func(error)
	cb        func(SetResult) // SetMulti's callback
	acks      []int           // per entry: replicas that stored it
	want      []int           // per entry: replicas it was sent to
	batches   []*batchState
	delivered int // batch handle invocations, late replies included
	done      bool
	res       SetResult
	timer     netsim.Timer
	timeoutFn func() // pre-bound OpTimeout callback
}

// batchState is one command of an operation: the records routed to one
// server, issued as one mset (a plain set for a single record, pipelined
// deletes for a Delete).
type batchState struct {
	op     *multiOp
	server netsim.HostPort
	kvs    []memcache.KV
	idxs   []int                    // entry indices, for per-entry accounting
	body   int                      // memcache.EntryLen sum of kvs
	handle func(memcache.SimResult) // pre-bound reply callback
}

// takePickBuf pops a replica-list buffer. Callbacks fired while an
// operation issues its fan-out can start nested operations, so each live
// operation holds its own buffer; steady state circulates one or two.
func (s *Store) takePickBuf() []netsim.HostPort {
	if n := len(s.pickBufs); n > 0 {
		b := s.pickBufs[n-1]
		s.pickBufs = s.pickBufs[:n-1]
		return b[:0]
	}
	return nil
}

func (s *Store) putPickBuf(b []netsim.HostPort) {
	if cap(b) == 0 || len(s.pickBufs) >= 8 {
		return
	}
	s.pickBufs = append(s.pickBufs, b)
}

func (s *Store) takeOp() *multiOp {
	var op *multiOp
	if n := len(s.freeOps); n > 0 {
		op = s.freeOps[n-1]
		s.freeOps = s.freeOps[:n-1]
	} else {
		op = &multiOp{store: s}
		op.timeoutFn = func() {
			if op.done {
				return
			}
			op.done = true
			op.store.Stats.Timeouts++
			op.resolve(true)
		}
	}
	op.batches = op.batches[:0]
	op.delivered = 0
	op.done, op.del = false, false
	op.res = SetResult{}
	op.timer = netsim.Timer{}
	return op
}

func (s *Store) takeBatch(op *multiOp, server netsim.HostPort) *batchState {
	var b *batchState
	if n := len(s.freeBats); n > 0 {
		b = s.freeBats[n-1]
		s.freeBats = s.freeBats[:n-1]
	} else {
		b = &batchState{}
		b.handle = func(r memcache.SimResult) { b.op.handleReply(b, r) }
	}
	b.op = op
	b.server = server
	b.kvs = b.kvs[:0]
	b.idxs = b.idxs[:0]
	b.body = 0
	return b
}

// openBatch returns the command op last started for server, nil if none.
// A scan: op.batches has at most K × entries members.
func (op *multiOp) openBatch(server netsim.HostPort) *batchState {
	for i := len(op.batches) - 1; i >= 0; i-- {
		if b := op.batches[i]; b.server == server {
			return b
		}
	}
	return nil
}

// recycle returns the op and its batches to the pools. Called only once
// every batch reply (or connection failure) has been delivered — a
// SimClient fires each pending callback exactly once, so recycling
// earlier could let a late reply from this op corrupt its successor.
func (op *multiOp) recycle() {
	s := op.store
	for _, b := range op.batches {
		b.op = nil
		if len(s.freeBats) < 16 {
			s.freeBats = append(s.freeBats, b)
		}
	}
	op.batches = op.batches[:0]
	op.cb, op.errCb = nil, nil
	if len(s.freeOps) < 8 {
		s.freeOps = append(s.freeOps, op)
	}
}

// resolve reports the operation outcome. Recycling happens separately,
// once delivery is complete.
func (op *multiOp) resolve(timedOut bool) {
	op.res.TimedOut = timedOut
	for i, acks := range op.acks {
		switch {
		case acks == 0:
			op.res.Err = ErrAllReplicasFailed
		case acks < op.want[i] && !op.del:
			op.store.Stats.PartialWrites++
		}
	}
	cb, errCb, res := op.cb, op.errCb, op.res
	if op.delivered == len(op.batches) {
		op.recycle()
	}
	switch {
	case cb != nil:
		cb(res)
	case errCb != nil:
		errCb(res.Err)
	}
}

// handleReply processes one batch's reply (or failure).
func (op *multiOp) handleReply(b *batchState, r memcache.SimResult) {
	op.delivered++
	if op.done {
		// Late reply after the timeout: the result already went out; just
		// finish delivery accounting.
		if op.delivered == len(op.batches) {
			op.recycle()
		}
		return
	}
	stored := 0
	switch {
	case r.Err != nil:
		// connection-level failure: nothing in this batch stored
	case op.del:
		// The reply to the command's last delete: the server answered
		// every key of it, DELETED or NOT_FOUND.
		stored = len(b.idxs)
	case r.Reply.Type == memcache.ReplyMStored:
		stored = r.Reply.N
	case r.Reply.Type == memcache.ReplyStored:
		stored = 1
	}
	if stored > len(b.idxs) {
		stored = len(b.idxs)
	}
	s := op.store
	for j, idx := range b.idxs {
		if j < stored {
			op.acks[idx]++
			op.res.Acked++
		} else {
			op.res.Failed++
			s.Stats.ReplicaErrors++
		}
	}
	if op.delivered == len(op.batches) {
		op.done = true
		op.timer.Stop()
		op.resolve(false)
	}
}

// New creates a store client over the given Memcached servers.
func New(host *netsim.Host, servers []netsim.HostPort, cfg Config) *Store {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	return &Store{
		host:  host,
		cfg:   cfg,
		ring:  NewRing(servers),
		conns: make(map[netsim.HostPort]*memcache.SimClient),
	}
}

// SetServers replaces the server set (controller-driven reconfiguration).
// Existing connections to removed servers are closed.
func (s *Store) SetServers(servers []netsim.HostPort) {
	s.ring = NewRing(servers)
	keep := make(map[netsim.HostPort]bool, len(servers))
	for _, sv := range servers {
		keep[sv] = true
	}
	for hp, c := range s.conns {
		if !keep[hp] {
			c.Close()
			delete(s.conns, hp)
		}
	}
}

// Close aborts every open server connection — instance shutdown. The
// connections are closed in deterministic (sorted) order because each
// abort emits a RST whose network delivery may draw from the simulation
// RNG.
func (s *Store) Close() {
	addrs := make([]netsim.HostPort, 0, len(s.conns))
	for hp := range s.conns {
		addrs = append(addrs, hp)
	}
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].IP != addrs[j].IP {
			return addrs[i].IP < addrs[j].IP
		}
		return addrs[i].Port < addrs[j].Port
	})
	for _, hp := range addrs {
		s.conns[hp].Close()
		delete(s.conns, hp)
	}
}

// Replicas returns the configured replication factor.
func (s *Store) Replicas() int { return s.cfg.Replicas }

func (s *Store) conn(server netsim.HostPort) *memcache.SimClient {
	if c, ok := s.conns[server]; ok {
		if c.Up() {
			return c
		}
		// Close the dead client before replacing it so its remaining
		// connection state and timers are torn down rather than leaked.
		c.Close()
	}
	c := memcache.DialSim(s.host, server, s.cfg.TCP, nil)
	s.conns[server] = c
	return c
}

// Set stores value under key on all K replicas concurrently: the
// one-entry case of SetMulti, always sent as a plain set. cb fires once
// every replica has answered or the operation timeout expires — with nil
// if anything was stored by then (recoverable), ErrAllReplicasFailed if
// not.
func (s *Store) Set(key, value []byte, cb func(error)) {
	s.Stats.Sets++
	op := s.takeOp()
	op.errCb = cb
	entry := [1]Entry{{Key: key, Value: value}}
	s.issue(op, entry[:])
}

// SetMulti stores every entry on its K replicas in one batched round
// trip: entries are grouped into one pipelined mset command per replica
// server (a plain set when a server receives a single record), so the
// wire cost is one request/reply exchange per server for any batch that
// fits one MSS. cb fires exactly once — when all batches have resolved
// or at OpTimeout — with the per-replica outcome tally.
func (s *Store) SetMulti(entries []Entry, cb func(SetResult)) {
	s.Stats.BatchSets++
	s.Stats.BatchRecords += uint64(len(entries))
	if len(entries) == 0 {
		cb(SetResult{})
		return
	}
	op := s.takeOp()
	op.cb = cb
	s.issue(op, entries)
}

// Delete removes the key of every entry (values are ignored) from all its
// replicas, the keys grouped into one pipelined command per replica
// server as SetMulti groups records. cb (which may be nil) fires once,
// when every replica has answered or at OpTimeout; err is non-nil only if
// some key was answered by no replica.
func (s *Store) Delete(entries []Entry, cb func(error)) {
	s.Stats.Deletes++
	op := s.takeOp()
	op.del, op.errCb = true, cb
	s.issue(op, entries)
}

// issue groups op's entries by replica server, arms the operation timeout
// and sends one command per server. A command never exceeds one MSS: an
// entry that would push its server's command past it starts a second
// command to that server, with its own reply. (A server charges a command
// by the segment that completes it, so one that arrived in pieces would
// skew the Figure 10/11 calibration.) Grouping preserves entry order and
// a deterministic server order; the simulator's bit-identical-trace
// guarantee depends on the issue order of the underlying writes.
func (s *Store) issue(op *multiOp, entries []Entry) {
	op.acks = resetInts(op.acks, len(entries))
	op.want = resetInts(op.want, len(entries))
	// Build phase, fully synchronous: no callback can run until the issue
	// phase below.
	replicas := s.takePickBuf()
	for i := range entries {
		kv := memcache.KV{Key: entries[i].Key, Value: entries[i].Value}
		n := memcache.EntryLen(kv, s.cfg.Expiry, op.del)
		replicas = s.ring.PickInto(replicas[:0], kv.Key, s.cfg.Replicas)
		op.want[i] = len(replicas)
		for _, server := range replicas {
			b := op.openBatch(server)
			if b == nil || memcache.CmdLen(len(b.kvs)+1, b.body+n, op.del) > s.cfg.TCP.MSS {
				b = s.takeBatch(op, server)
				op.batches = append(op.batches, b)
			}
			b.kvs = append(b.kvs, kv)
			b.idxs = append(b.idxs, i)
			b.body += n
		}
	}
	s.putPickBuf(replicas)
	if len(op.batches) == 0 {
		op.resolve(false) // no servers: every entry has zero acks
		return
	}
	s.Stats.RoundTrips += uint64(len(op.batches))
	if s.cfg.OpTimeout > 0 {
		op.timer = s.host.Network().Schedule(s.cfg.OpTimeout, op.timeoutFn)
	}
	// Issue phase. The connection encodes keys and values into its own
	// buffers before returning, so the entries' slices are not retained.
	for _, b := range op.batches {
		conn := s.conn(b.server)
		switch {
		case op.del:
			conn.Delete(b.kvs, b.handle)
		case len(b.kvs) == 1:
			conn.Set(b.kvs[0].Key, b.kvs[0].Value, 0, s.cfg.Expiry, b.handle)
		default:
			conn.SetMulti(b.kvs, s.cfg.Expiry, b.handle)
		}
	}
}

// resetInts returns buf resized to n with every element zeroed.
func resetInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// armOpTimeout schedules the operation bound; on expiry it marks the op
// done and runs resolve. Returns a stoppable timer (the inert zero
// Timer when disabled).
func (s *Store) armOpTimeout(done *bool, resolve func()) netsim.Timer {
	if s.cfg.OpTimeout <= 0 {
		return netsim.Timer{}
	}
	return s.host.Network().Schedule(s.cfg.OpTimeout, func() {
		if *done {
			return
		}
		*done = true
		s.Stats.Timeouts++
		resolve()
	})
}

// Get fetches key: the operation goes to all replicas concurrently and
// the first hit wins. ok=false with nil error means a clean miss on
// every reachable replica.
func (s *Store) Get(key []byte, cb func(value []byte, ok bool, err error)) {
	s.Stats.Gets++
	replicas := s.ring.PickInto(s.takePickBuf(), key, s.cfg.Replicas)
	if len(replicas) == 0 {
		s.putPickBuf(replicas)
		cb(nil, false, ErrAllReplicasFailed)
		return
	}
	s.Stats.RoundTrips += uint64(len(replicas))
	n := len(replicas)
	misses, errs, done := 0, 0, false
	timer := s.armOpTimeout(&done, func() {
		s.Stats.Misses++
		if misses > 0 {
			cb(nil, false, nil) // a reachable replica answered "no such key"
		} else {
			cb(nil, false, ErrAllReplicasFailed)
		}
	})
	for _, server := range replicas {
		s.conn(server).Get(key, func(r memcache.SimResult) {
			if done {
				return
			}
			switch {
			case r.Err == nil && len(r.Reply.Items) > 0:
				done = true
				timer.Stop()
				s.Stats.Hits++
				cb(r.Reply.Items[0].Value, true, nil)
			case r.Err != nil:
				errs++
				s.Stats.ReplicaErrors++
			default:
				misses++
			}
			if !done && misses+errs == n {
				done = true
				timer.Stop()
				s.Stats.Misses++
				if errs == n {
					cb(nil, false, ErrAllReplicasFailed)
				} else {
					cb(nil, false, nil)
				}
			}
		})
	}
	s.putPickBuf(replicas)
}

// Latency measurement helper: TimedSet behaves like Set and reports the
// operation latency to the callback, used by the Figure 10 experiment.
func (s *Store) TimedSet(key, value []byte, cb func(lat time.Duration, err error)) {
	start := s.host.Network().Now()
	s.Set(key, value, func(err error) {
		cb(s.host.Network().Now()-start, err)
	})
}
