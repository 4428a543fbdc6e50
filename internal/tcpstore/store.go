package tcpstore

import (
	"errors"
	"slices"
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
}

// storeTCP is the endpoint every store connection dials with, the
// testbed's default; its MSS bounds one command.
var storeTCP = tcp.DefaultConfig()

// DefaultConfig matches the paper's deployment: 2 replicas (a write waits
// for both: the paper ACKs the client only after the state is persisted),
// 10-minute TTL as a leak backstop, 1 s operation bound.
func DefaultConfig() Config {
	return Config{Replicas: 2, Expiry: 600, OpTimeout: time.Second}
}

// Stats counts client-side operation outcomes.
type Stats struct {
	Sets, Gets, Deletes uint64
	// BatchRecords counts the records SetMulti operations carried.
	BatchRecords  uint64
	Hits          uint64
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
	freeOps  spares[multiOp] // each keeps the batches it last used
	freeGets spares[getOp]

	Stats Stats
}

// spares is a free list of in-flight records under the dataplane's
// shrink rule: it keeps what the most records in flight at once needed,
// and once no more than a quarter of its records are in flight it cuts
// itself to as many spares as there are records in flight, never below
// spareFloor. A burst then reuses what the load has in flight, and a
// storm's records go back once it is over.
type spares[T any] struct {
	free []*T
	out  int // records taken and not put back
}

const spareFloor = 16

// take returns the record put back last, or nil for the caller to make.
func (s *spares[T]) take() *T {
	s.out++
	k := len(s.free) - 1
	if k < 0 {
		return nil
	}
	x := s.free[k]
	s.free[k] = nil
	s.free = s.free[:k]
	return x
}

// put files x, released.
func (s *spares[T]) put(x *T) {
	s.out--
	s.free = append(s.free, x)
	if n := len(s.free); 4*s.out <= n+s.out && n > spareFloor {
		// As netsim's free lists cut, here so that the heap ledgers
		// charge the array to this layer.
		keep := max(s.out, spareFloor)
		clear(s.free[keep:])
		s.free = s.free[:keep]
		if cap(s.free) > 4*keep {
			s.free = append(make([]*T, 0, 2*keep), s.free...)
		}
	}
}

// multiOp is the pooled in-flight state of one Set, SetMulti or Delete,
// and the owner of its OpTimeout timer (Fire). Set is the one-entry write
// and reports through errCb. A Delete reports through errCb too (which
// may then be nil): every replica must answer, and a reply acks every key
// of its command.
type multiOp struct {
	store     *Store
	del       bool
	errCb     func(error)
	cb        func(SetResult) // SetMulti's callback
	acks      []int           // per entry: replicas that stored it
	batches   []*batchState
	delivered int // batch handle invocations, late replies included
	done      bool
	res       SetResult
	timer     netsim.Timer
}

// Fire times the operation out.
func (op *multiOp) Fire() {
	if op.done {
		return
	}
	op.done = true
	op.store.Stats.Timeouts++
	op.resolve(true)
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
	op := s.freeOps.take()
	if op == nil {
		op = &multiOp{store: s}
	}
	op.batches = op.batches[:0]
	op.delivered = 0
	op.done, op.del = false, false
	op.res = SetResult{}
	op.timer = netsim.Timer{}
	return op
}

// addBatch starts a command to server: a batch the op kept from its last
// use, or a new one.
func (op *multiOp) addBatch(server netsim.HostPort) *batchState {
	n := len(op.batches)
	var b *batchState
	if n < cap(op.batches) {
		b = op.batches[:n+1][n]
	}
	if b == nil {
		b = &batchState{idxs: make([]int, 0, 2)} // 16 B, as resetInts
		b.handle = func(r memcache.SimResult) { b.op.handleReply(b, r) }
	}
	op.batches = append(op.batches, b)
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

// recycle returns the op, with its batches, to the pool. Called only
// once every batch reply (or connection failure) has been delivered — a
// SimClient fires each pending callback exactly once, so recycling
// earlier could let a late reply from this op corrupt its successor.
func (op *multiOp) recycle() {
	for _, b := range op.batches {
		b.op = nil
	}
	op.batches = op.batches[:0]
	op.cb, op.errCb = nil, nil
	op.store.freeOps.put(op)
}

// resolve reports the operation outcome. Recycling happens separately,
// once delivery is complete.
func (op *multiOp) resolve(timedOut bool) {
	op.res.TimedOut = timedOut
	for _, acks := range op.acks {
		if acks == 0 {
			op.res.Err = ErrAllReplicasFailed
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
		op.store.host.Network().Stop(op.timer)
		op.resolve(false)
	}
}

// New creates a store client over the given Memcached servers, on a
// ring of its own.
func New(host *netsim.Host, servers []netsim.HostPort, cfg Config) *Store {
	return NewOnRing(host, NewRing(servers), cfg)
}

// NewOnRing creates a store client over ring's servers, sharing the ring.
func NewOnRing(host *netsim.Host, ring *Ring, cfg Config) *Store {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	return &Store{
		host:  host,
		cfg:   cfg,
		ring:  ring,
		conns: make(map[netsim.HostPort]*memcache.SimClient),
	}
}

// SetRing replaces the server set with ring's (controller-driven
// reconfiguration). Existing connections to removed servers are closed,
// in the old ring's order: every connection is to a server of the ring.
func (s *Store) SetRing(ring *Ring) {
	for _, hp := range s.ring.Servers() {
		if c, ok := s.conns[hp]; ok && !slices.Contains(ring.Servers(), hp) {
			c.Close()
			delete(s.conns, hp)
		}
	}
	s.ring = ring
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
	c := memcache.DialSim(s.host, server, storeTCP, nil)
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
	// Build phase, fully synchronous: no callback can run until the issue
	// phase below.
	replicas := s.takePickBuf()
	for i := range entries {
		kv := memcache.KV{Key: entries[i].Key, Value: entries[i].Value}
		n := memcache.EntryLen(kv, s.cfg.Expiry, op.del)
		replicas = s.ring.PickInto(replicas[:0], kv.Key, s.cfg.Replicas)
		for _, server := range replicas {
			b := op.openBatch(server)
			if b == nil || memcache.CmdLen(len(b.kvs)+1, b.body+n, op.del) > storeTCP.MSS {
				b = op.addBatch(server)
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
		op.timer = s.host.Network().Arm(s.cfg.OpTimeout, op)
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
		// At least 16 B: a smaller pointer-free array is a tiny
		// allocation, which the heap ledgers charge to whichever site
		// started its block.
		return make([]int, n, max(n, 2))
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Get fetches key: the operation goes to all replicas concurrently and
// the first hit wins. ok=false with nil error means a clean miss on
// every reachable replica. A hit's value is lent for the call only.
func (s *Store) Get(key []byte, cb func(value []byte, ok bool, err error)) {
	s.Stats.Gets++
	replicas := s.ring.PickInto(s.takePickBuf(), key, s.cfg.Replicas)
	if len(replicas) == 0 {
		s.putPickBuf(replicas)
		cb(nil, false, ErrAllReplicasFailed)
		return
	}
	s.Stats.RoundTrips += uint64(len(replicas))
	op := s.takeGetOp()
	op.cb, op.n = cb, len(replicas)
	if s.cfg.OpTimeout > 0 {
		op.timer = s.host.Network().Arm(s.cfg.OpTimeout, op)
	}
	for _, server := range replicas {
		s.conn(server).Get(key, op.replyFn)
	}
	s.putPickBuf(replicas)
}

// getOp is the pooled in-flight state of one Get, its reply callback
// bound once, and the owner of its OpTimeout timer (Fire), as a multiOp
// is. It is recycled once every
// replica has answered or failed, never earlier: a late reply must not
// reach the op's next Get.
type getOp struct {
	store        *Store
	cb           func(value []byte, ok bool, err error)
	n, delivered int // replicas asked, replies (or failures) delivered
	misses, errs int
	done         bool
	timer        netsim.Timer
	replyFn      func(memcache.SimResult)
}

func (s *Store) takeGetOp() *getOp {
	if op := s.freeGets.take(); op != nil {
		return op
	}
	op := &getOp{store: s}
	op.replyFn = op.reply
	return op
}

// finish resolves the op with cb's arguments, recycling it first when
// every replica has answered, so cb may start the next Get on it. An op
// still waiting for a late reply lets cb go: a reply that never comes (a
// dead client's) must not hold what cb holds.
func (op *getOp) finish(value []byte, ok bool, err error) {
	op.done = true
	op.store.host.Network().Stop(op.timer)
	cb := op.cb
	op.cb = nil
	op.recycleIfDelivered()
	cb(value, ok, err)
}

func (op *getOp) recycleIfDelivered() {
	if op.delivered < op.n {
		return
	}
	s := op.store
	*op = getOp{store: s, replyFn: op.replyFn}
	s.freeGets.put(op)
}

func (op *getOp) reply(r memcache.SimResult) {
	op.delivered++
	if op.done {
		op.recycleIfDelivered()
		return
	}
	switch {
	case r.Err == nil && len(r.Reply.Items) > 0:
		op.store.Stats.Hits++
		op.finish(r.Reply.Items[0].Value, true, nil)
		return
	case r.Err != nil:
		op.errs++
		op.store.Stats.ReplicaErrors++
	default:
		op.misses++
	}
	switch {
	case op.misses+op.errs < op.n:
	case op.errs == op.n:
		op.finish(nil, false, ErrAllReplicasFailed)
	default:
		op.finish(nil, false, nil)
	}
}

// timeout resolves the op at OpTimeout with what has answered: a clean
// miss if a reachable replica said "no such key", else a failure.
// Fire times the Get out.
func (op *getOp) Fire() {
	if op.done {
		return
	}
	op.store.Stats.Timeouts++
	if op.misses > 0 {
		op.finish(nil, false, nil)
	} else {
		op.finish(nil, false, ErrAllReplicasFailed)
	}
}

// Latency measurement helper: TimedSet behaves like Set and reports the
// operation latency to the callback, used by the Figure 10 experiment.
func (s *Store) TimedSet(key, value []byte, cb func(lat time.Duration, err error)) {
	start := s.host.Network().Now()
	s.Set(key, value, func(err error) {
		cb(s.host.Network().Now()-start, err)
	})
}
