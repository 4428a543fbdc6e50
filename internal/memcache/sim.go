package memcache

import (
	"errors"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

// DefaultPort is the memcached port.
const DefaultPort = 11211

// SimServerConfig tunes a simulated memcached server.
type SimServerConfig struct {
	// ServiceTime is the per-operation processing time; operations queue
	// behind each other, so offered load beyond 1/ServiceTime saturates
	// the server and inflates latency, as in Figure 10.
	ServiceTime time.Duration
	// CPUPerOp is the virtual CPU cost charged per operation.
	CPUPerOp time.Duration
	// Cores is the VM's core count (testbed: 8).
	Cores int
	TCP   tcp.Config
}

// DefaultSimServerConfig is calibrated so one server serves ~80K ops/s at
// ~90% CPU, matching §7.1's "a single Memcached server can handle 80K
// client req/sec (at 90% CPU utilization)".
func DefaultSimServerConfig() SimServerConfig {
	return SimServerConfig{
		ServiceTime: 11 * time.Microsecond,
		CPUPerOp:    90 * time.Microsecond, // 8 cores × 90% / 80K ops/s
		Cores:       8,
		TCP:         tcp.DefaultConfig(),
	}
}

// SimServer runs the memcached engine inside the netsim event loop,
// reachable over simulated TCP.
type SimServer struct {
	Engine *Engine
	CPU    *metrics.CPUMeter
	host   *netsim.Host
	cfg    SimServerConfig

	// queueFree is the virtual time the op-processing queue drains.
	queueFree time.Duration
	// Ops counts operations processed.
	Ops uint64
	// freeReplies pools schedReply objects across data events.
	freeReplies []*schedReply
}

// NewSimServer starts a simulated memcached server on host:port.
func NewSimServer(host *netsim.Host, port uint16, cfg SimServerConfig) *SimServer {
	s := &SimServer{
		Engine: NewEngine(0, host.Network().Now),
		CPU:    metrics.NewCPUMeter(cfg.Cores),
		host:   host,
		cfg:    cfg,
	}
	tcp.Listen(host, port, s.accept, cfg.TCP)
	return s
}

// Host returns the server's host.
func (s *SimServer) Host() *netsim.Host { return s.host }

// schedReply is a pooled pending-response: the reply bytes for one input
// chunk, and the owner of the timer that emits them once the server's op
// queue drains (Fire), so scheduling a reply binds no closure.
type schedReply struct {
	srv  *SimServer
	conn *tcp.Conn
	sess *Session
	resp []byte
}

func (s *SimServer) takeReply() *schedReply {
	if n := len(s.freeReplies); n > 0 {
		r := s.freeReplies[n-1]
		s.freeReplies = s.freeReplies[:n-1]
		return r
	}
	return &schedReply{srv: s}
}

// Fire sends the reply and files r for the next one.
func (r *schedReply) Fire() {
	r.conn.Write(r.resp) // Write copies; the buffer can go back
	r.sess.Release(r.resp)
	r.conn, r.sess, r.resp = nil, nil, nil
	if len(r.srv.freeReplies) < 32 {
		r.srv.freeReplies = append(r.srv.freeReplies, r)
	}
}

func (s *SimServer) accept(c *tcp.Conn) tcp.Callbacks {
	sess := NewSession(s.Engine)
	return tcp.Callbacks{
		OnData: func(c *tcp.Conn, d []byte) {
			// Model queueing: the reply for this input is emitted after the
			// server works through its queue, one op per command the
			// session executed (n for an mset of n records).
			net := s.host.Network()
			now := net.Now()
			resp := sess.Feed(d)
			if len(resp) == 0 {
				return
			}
			ops := sess.Ops()
			s.Ops += uint64(ops)
			s.CPU.Charge(now, time.Duration(ops)*s.cfg.CPUPerOp)
			work := time.Duration(ops) * s.cfg.ServiceTime
			if s.queueFree < now {
				s.queueFree = now
			}
			s.queueFree += work
			delay := s.queueFree - now
			r := s.takeReply()
			r.conn, r.sess, r.resp = c, sess, resp
			net.Arm(delay, r)
		},
		OnPeerClose: func(c *tcp.Conn) { c.Close() },
	}
}

// ErrSimConnDown is delivered to pending callbacks when the connection to
// a simulated server fails.
var ErrSimConnDown = errors.New("memcache: connection to server lost")

// SimResult is the outcome of an asynchronous simulated operation.
type SimResult struct {
	Reply Reply
	Err   error
}

// KV is one key/value pair for SimClient.SetMulti. Both slices may alias
// caller scratch: the client encodes them into its own buffer before
// returning, so neither is retained after the call.
type KV struct {
	Key   []byte
	Value []byte
}

// SimClient is an asynchronous memcached client over one long-lived
// simulated TCP connection. Operations pipeline; replies dispatch FIFO.
//
// Key parameters are []byte and are not retained: commands are encoded
// into the client's scratch buffer synchronously, so callers can pass
// slices of their own reused buffers.
type SimClient struct {
	conn   *tcp.Conn
	parser *ReplyParser
	// pending is a ring of reply callbacks: pending[phead:] are
	// outstanding, and the consumed prefix is reclaimed when it drains so
	// steady-state ping-pong traffic never reallocates.
	pending []func(SimResult)
	phead   int
	onDown  func()
	// onReply is the reply dispatcher, bound once so FeedFunc calls do
	// not allocate a closure per data event.
	onReply func(Reply)
	// scratch is the reused command-encoding buffer; tcp.Conn.Write
	// copies the bytes into its send buffer, so reuse across ops is safe.
	scratch []byte
}

// DialSim opens a client connection from host to server. onDown, if
// non-nil, fires when the connection is lost (the TCPStore client uses it
// to fail over).
func DialSim(host *netsim.Host, server netsim.HostPort, cfg tcp.Config, onDown func()) *SimClient {
	c := &SimClient{parser: &ReplyParser{}, onDown: onDown}
	net := host.Network()
	c.onReply = func(r Reply) {
		if c.phead == len(c.pending) {
			return
		}
		cb := c.pending[c.phead]
		c.pending[c.phead] = nil
		c.phead++
		if c.phead == len(c.pending) {
			c.pending = c.pending[:0]
			c.phead = 0
		}
		if cb != nil {
			cb(SimResult{Reply: r})
		}
		// The items were lent for the call: under PoisonReleasedBufs a
		// late reader of them sees 0xDD.
		for _, it := range r.Items {
			net.ScrubReleased(it.Key)
			net.ScrubReleased(it.Value)
		}
	}
	c.conn = tcp.Dial(host, server, tcp.Callbacks{
		OnData: func(_ *tcp.Conn, d []byte) {
			c.parser.FeedFunc(d, c.onReply)
		},
		OnFail:      func(_ *tcp.Conn, err error) { c.fail() },
		OnPeerClose: func(cc *tcp.Conn) { cc.Close(); c.fail() },
	}, cfg)
	return c
}

// Up reports whether the connection is (still) usable.
func (c *SimClient) Up() bool { return c.conn.State() != tcp.StateClosed }

func (c *SimClient) fail() {
	pend := c.pending[c.phead:]
	c.pending = nil
	c.phead = 0
	for _, cb := range pend {
		if cb != nil {
			cb(SimResult{Err: ErrSimConnDown})
		}
	}
	if c.onDown != nil {
		c.onDown()
	}
}

// Close tears the connection down.
func (c *SimClient) Close() { c.conn.Abort() }

// send writes cmd, which holds replies commands, and queues cb for the
// last of their replies; the ones before it get a nil entry nobody waits
// on (the connection answers in order, so they have arrived by then).
func (c *SimClient) send(cmd []byte, replies int, multiLine bool, cb func(SimResult)) {
	if c.conn.State() == tcp.StateClosed {
		cb(SimResult{Err: ErrSimConnDown})
		return
	}
	if c.phead == len(c.pending) {
		c.pending = c.pending[:0]
		c.phead = 0
	}
	for i := 1; i < replies; i++ {
		c.parser.Expect(multiLine)
		c.pending = append(c.pending, nil)
	}
	c.parser.Expect(multiLine)
	c.pending = append(c.pending, cb)
	c.conn.Write(cmd)
}

// Set stores value under key, invoking cb with the outcome.
func (c *SimClient) Set(key, value []byte, flags uint32, exptime int, cb func(SimResult)) {
	c.scratch = appendRecord(append(c.scratch[:0], "set "...), key, value, flags, exptime)
	c.send(c.scratch, 1, false, cb)
}

// SetMulti stores all pairs in one pipelined mset command: a single
// write and a single MSTORED reply regardless of the record count, so a
// multi-record state write costs one round trip on the wire.
func (c *SimClient) SetMulti(kvs []KV, exptime int, cb func(SimResult)) {
	c.scratch = appendMSetKVCmd(c.scratch[:0], kvs, exptime)
	c.send(c.scratch, 1, false, cb)
}

// Get fetches key; the callback's Reply.Items is empty on a miss, and a
// hit's item is lent for the call only (ReplyParser.FeedFunc).
func (c *SimClient) Get(key []byte, cb func(SimResult)) {
	c.scratch = append(append(append(c.scratch[:0], "get "...), key...), '\r', '\n')
	c.send(c.scratch, 1, true, cb)
}

// Delete removes the key of every pair of kvs (which must not be empty;
// values are ignored) with one standard "delete <key>\r\n" command per
// key, all in one write, so a server answers the batch in one reply and
// it costs one round trip. cb fires once: with the last key's reply, or
// with the connection's failure.
func (c *SimClient) Delete(kvs []KV, cb func(SimResult)) {
	c.scratch = c.scratch[:0]
	for i := range kvs {
		c.scratch = append(append(append(c.scratch, "delete "...), kvs[i].Key...), '\r', '\n')
	}
	c.send(c.scratch, len(kvs), false, cb)
}

// EntryLen is the length one pair adds to the command SimClient sends for
// a batch: its record in a set or mset (flags 0), or its key's delete
// line.
func EntryLen(kv KV, exptime int, del bool) int {
	if del {
		return len("delete ") + len(kv.Key) + len("\r\n")
	}
	return len(kv.Key) + len(" 0 ") + decLen(exptime) + len(" ") + decLen(len(kv.Value)) + len("\r\n") +
		len(kv.Value) + len("\r\n")
}

// CmdLen is the length of the command SimClient sends for a batch of n
// pairs whose EntryLens sum to body: Delete's lines alone, Set's verb
// before a lone record, SetMulti's "mset n" line before more.
func CmdLen(n, body int, del bool) int {
	switch {
	case del:
		return body
	case n == 1:
		return len("set ") + body
	}
	return len("mset ") + decLen(n) + len("\r\n") + body
}

// decLen is the length of v in decimal.
func decLen(v int) int {
	var b [20]byte
	return len(strconv.AppendInt(b[:0], int64(v), 10))
}

// appendMSetKVCmd encodes a batched mset from KV pairs into dst (the
// caller's reused scratch buffer; see SimClient.scratch).
func appendMSetKVCmd(dst []byte, kvs []KV, exptime int) []byte {
	dst = append(dst, "mset "...)
	dst = strconv.AppendInt(dst, int64(len(kvs)), 10)
	dst = append(dst, '\r', '\n')
	for i := range kvs {
		dst = appendRecord(dst, kvs[i].Key, kvs[i].Value, 0, exptime)
	}
	return dst
}

// appendRecord encodes "<key> <flags> <exptime> <bytes>\r\n<data>\r\n" into
// dst: one mset record, or what follows the verb of a set command.
func appendRecord(dst, key, value []byte, flags uint32, exptime int) []byte {
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(exptime), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(value)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, value...)
	dst = append(dst, '\r', '\n')
	return dst
}
