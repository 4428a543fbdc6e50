// Package tcp implements a userspace TCP endpoint on top of the netsim
// packet network: three-way handshake, cumulative acknowledgments,
// out-of-order reassembly, retransmission with exponential backoff, slow
// start / congestion avoidance, and FIN/RST teardown.
//
// It exists because Yoda's whole premise is packet-level: the load
// balancer hand-crafts segments and rewrites sequence numbers, so the
// clients and backend servers it talks to must run a real TCP state
// machine for the recovery experiments to mean anything. Callbacks.User
// gives each connection a user word for package-level callbacks. The
// implementation favours clarity over completeness (no SACK, no window
// scaling, no delayed ACKs: every data segment is acknowledged at once,
// and no segment carries more than one MSS) but is faithful where the
// paper depends on behaviour: retransmission timing (first data
// retransmit at the base RTO, doubling thereafter; SYN retransmit at 3 s
// as on Ubuntu) and duplicate-segment suppression at the receiver.
package tcp

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/netsim"
)

// Config carries the tunables of an endpoint. The zero value is not
// usable; call DefaultConfig.
type Config struct {
	MSS             int           // maximum segment payload bytes
	InitialCwnd     int           // initial congestion window, in segments
	RTO             time.Duration // base retransmission timeout for data
	SynRTO          time.Duration // retransmission timeout for SYN / SYN-ACK
	MaxRTO          time.Duration // backoff ceiling
	MaxRetries      int           // per-segment retransmit budget before giving up
	ReceiveWindow   uint32        // advertised receive window, bytes
	InitialSsthresh uint32        // slow-start threshold, bytes
	// ISNKey, when non-zero, makes the endpoint derive its initial send
	// sequence from a keyed hash of the connection tuple instead of the
	// network's RNG (see DeterministicISN). Yoda's hybrid recovery mode sets
	// this on backend servers so a recovering instance can re-derive the
	// backend ISN without a store read. Zero keeps the RNG draw, so
	// existing seeds and figures are untouched.
	ISNKey uint64
	// IdleProbe, when non-zero, makes an established connection emit a
	// bare ACK (seq=sndNxt, ack=rcvNxt) whenever it has been idle with no
	// unacknowledged data for this long — modelling RFC 1122 TCP
	// keepalive probes. Hybrid-recovery testbeds enable it on clients so
	// a flow whose response was lost with a failed LB instance still
	// produces client-side packets for the successor to recover from.
	// Zero (the default) disables it entirely.
	IdleProbe time.Duration
}

// DefaultConfig returns the configuration used across the testbed: MSS
// 1460, IW10, 300ms base RTO (matching the paper's observed 300/600ms
// retransmits), 3s SYN timeout (Ubuntu's default per §4.2).
func DefaultConfig() Config {
	return Config{
		MSS:             1460,
		InitialCwnd:     10,
		RTO:             300 * time.Millisecond,
		SynRTO:          3 * time.Second,
		MaxRTO:          60 * time.Second,
		MaxRetries:      8,
		ReceiveWindow:   1 << 20,
		InitialSsthresh: 1 << 20,
	}
}

// State is a TCP connection state.
type State int

// Connection states. Only the states the simulator distinguishes are
// modelled; TIME_WAIT is collapsed into Closed since the simulated port
// allocator never reuses a tuple while packets are in flight.
const (
	StateSynSent State = iota
	StateSynReceived
	StateEstablished
	StateFinWait   // we sent FIN, waiting for its ACK (and possibly peer FIN)
	StateCloseWait // peer sent FIN, we have not closed yet
	StateLastAck   // peer closed, our FIN in flight
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateSynSent:
		return "SYN_SENT"
	case StateSynReceived:
		return "SYN_RECEIVED"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFinWait:
		return "FIN_WAIT"
	case StateCloseWait:
		return "CLOSE_WAIT"
	case StateLastAck:
		return "LAST_ACK"
	case StateClosed:
		return "CLOSED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors reported through Callbacks.OnFail.
var (
	ErrReset   = errors.New("tcp: connection reset by peer")
	ErrTimeout = errors.New("tcp: retransmission timeout")
)

// Callbacks notify the application of connection events. Any field may be
// nil. Callbacks run inside the netsim event loop and must not block.
// User is the connection's user word, handed back by Conn.User: callbacks
// that are package-level functions reach the application's object for the
// connection by a pointer type assertion, c.User().(*T), which allocates
// nothing, where closures would be bound per connection.
type Callbacks struct {
	OnEstablished func(c *Conn)
	OnData        func(c *Conn, data []byte)
	OnPeerClose   func(c *Conn) // peer's FIN arrived; data delivery is complete
	OnClose       func(c *Conn) // connection fully closed in both directions
	OnFail        func(c *Conn, err error)
	User          any
}

// DeterministicISN derives an initial send sequence number from a secret
// key and the connection tuple (FNV-1a over the endpoint encoding, then a
// splitmix64-style finalizer). Any party holding the key can recompute
// the ISN a (local, remote) endpoint chose — the SYN-cookie-style trick
// Yoda's hybrid recovery uses to reconstruct the backend-side sequence
// translation without a store read.
func DeterministicISN(key uint64, local, remote netsim.HostPort) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= (key >> (8 * i)) & 0xff
		h *= prime64
	}
	mix := func(hp netsim.HostPort) {
		ip := uint32(hp.IP)
		h ^= uint64(ip >> 24 & 0xff)
		h *= prime64
		h ^= uint64(ip >> 16 & 0xff)
		h *= prime64
		h ^= uint64(ip >> 8 & 0xff)
		h *= prime64
		h ^= uint64(ip & 0xff)
		h *= prime64
		h ^= uint64(hp.Port >> 8)
		h *= prime64
		h ^= uint64(hp.Port & 0xff)
		h *= prime64
	}
	mix(local)
	mix(remote)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return uint32(h ^ (h >> 32))
}

// seqLT reports a < b in 32-bit sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ reports a <= b in 32-bit sequence space.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// reasmSeg is an out-of-order segment parked for reassembly. data is a
// read-only reference into the sender's send buffer (zero-copy). That is
// safe because a parked segment is by definition unacknowledged, and the
// sender never overwrites bytes the cumulative ACK has not passed: the
// send buffer is only given up once every transmitted byte is acked,
// which cannot happen while this segment sits in the reassembly queue.
type reasmSeg struct {
	seq  uint32
	data []byte
	fin  bool
}

// rtxBuf tracks a pooled buffer holding a retransmitted segment's
// payload copy. It is returned to the network's buffer pool once the
// cumulative ACK passes end: at that point the receiver has consumed the
// bytes and any still-in-flight duplicate will be trimmed by sequence
// number without its content being read.
type rtxBuf struct {
	end uint32 // sequence number just past the copied payload
	buf []byte
}

// Conn is one endpoint of a TCP connection.
type Conn struct {
	host   *netsim.Host
	net    *netsim.Network
	cfg    Config
	cb     Callbacks
	local  netsim.HostPort
	remote netsim.HostPort

	state State

	// Send side.
	iss    uint32 // initial send sequence
	sndUna uint32 // oldest unacknowledged
	sndNxt uint32 // next to send
	// sndBuf holds unsent+unacked payload; live bytes are
	// sndBuf[sndHead:], and sndBuf[sndHead] is at seq bufSeq. The array
	// comes from the network's buffer pool at the first Write that finds
	// none and goes back the moment every byte in it is acknowledged
	// (applyAck), so a connection with nothing in flight holds no send
	// buffer and request/reply traffic still never allocates one.
	sndBuf  []byte
	sndHead int
	// sndTail is the borrowed tail: bytes that follow sndBuf[sndHead:] in
	// stream order and lie in an array the caller of WriteStatic promised
	// never to modify. It is only ever read and re-sliced, never appended
	// to and never handed to ReleaseBuf. (Declared here, before the 32-bit
	// fields, so that Conn stays in its size class: TestConnSizeClass.)
	sndTail   []byte
	bufSeq    uint32 // sequence number of the first live byte
	peerWnd   uint32
	cwnd      uint32
	ssthresh  uint32
	finQueued bool
	finSent   bool
	finSeq    uint32

	// Receive side.
	rcvNxt  uint32
	peerFin bool // peer's FIN has been processed
	reasm   []reasmSeg

	// Retransmission.
	rtxTimer   netsim.Timer
	rtxBackoff int
	rtxFn      func()   // c.onRtxTimeout, bound once to avoid per-arm allocation
	rtxBufs    []rtxBuf // pooled copies backing in-flight retransmits

	// Idle keepalive probing (Config.IdleProbe > 0 only).
	probeTimer netsim.Timer
	probeFn    func() // c.onProbeTimeout, bound once

	// Stats, exported for tests and experiments.
	Retransmits int
	BytesSent   uint64
	BytesRecv   uint64
}

// Dial opens an active connection from an ephemeral port on h to remote.
func Dial(h *netsim.Host, remote netsim.HostPort, cb Callbacks, cfg Config) *Conn {
	return DialFrom(h, h.AllocPort(), remote, cb, cfg)
}

// DialFrom opens an active connection from the given local port.
func DialFrom(h *netsim.Host, localPort uint16, remote netsim.HostPort, cb Callbacks, cfg Config) *Conn {
	c := newConn(h, netsim.HostPort{IP: h.IP(), Port: localPort}, remote, cb, cfg)
	c.state = StateSynSent
	if cfg.ISNKey != 0 {
		c.iss = DeterministicISN(cfg.ISNKey, c.local, c.remote)
	} else {
		c.iss = c.net.Rand().Uint32()
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.bufSeq = c.iss + 1
	h.Register(localPort, remote, c)
	c.sendSegment(netsim.FlagSYN, c.iss, 0, nil)
	c.armRtx(c.cfg.SynRTO)
	return c
}

func newConn(h *netsim.Host, local, remote netsim.HostPort, cb Callbacks, cfg Config) *Conn {
	c := &Conn{
		host:     h,
		net:      h.Network(),
		cfg:      cfg,
		cb:       cb,
		local:    local,
		remote:   remote,
		peerWnd:  cfg.ReceiveWindow,
		cwnd:     uint32(cfg.InitialCwnd * cfg.MSS),
		ssthresh: cfg.InitialSsthresh,
	}
	c.rtxFn = c.onRtxTimeout
	if cfg.IdleProbe > 0 {
		c.probeFn = c.onProbeTimeout
	}
	return c
}

// armProbe starts the idle-probe timer once the connection establishes.
func (c *Conn) armProbe() {
	if c.probeFn == nil || c.probeTimer.Active() {
		return
	}
	c.probeTimer = c.net.Schedule(c.cfg.IdleProbe, c.probeFn)
}

// onProbeTimeout emits a bare ACK if the connection has been idle —
// established, nothing in flight, nothing buffered — and re-arms. The
// probe elicits no reply from a healthy peer (pure ACKs are not ACKed)
// but gives a recovering load balancer a client-side packet to act on.
func (c *Conn) onProbeTimeout() {
	c.probeTimer = netsim.Timer{}
	if c.state == StateClosed {
		return
	}
	if c.state == StateEstablished && c.inflight() == 0 && c.buffered() == 0 && !c.finQueued {
		c.sendAck()
	}
	c.probeTimer = c.net.Schedule(c.cfg.IdleProbe, c.probeFn)
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// User returns the user word its Callbacks carried (see Callbacks).
func (c *Conn) User() any { return c.cb.User }

// LocalAddr returns the local endpoint.
func (c *Conn) LocalAddr() netsim.HostPort { return c.local }

// ISN returns the initial send sequence number (used by tests).
func (c *Conn) ISN() uint32 { return c.iss }

// minSndBuf is the least a connection asks the buffer pool for. Small
// writes then share one size class, so any of them can take the array
// any other gave back, and a pipelined second write (a memcache reply is
// 8 bytes) appends into the array instead of outgrowing it.
const minSndBuf = 512

// Write queues payload for transmission. It is an error to write after
// Close or on a failed connection; the data is silently discarded then.
func (c *Conn) Write(data []byte) { c.enqueue(nil, data) }

// Writev is Write of the concatenation of bufs without building it: each
// part is copied once, straight into the send buffer, then one trySend.
// Segments are cut from the send buffer, so their boundaries are exactly
// those of a single Write of the joined bytes. A connection that holds no
// send buffer asks the network's pool for one that takes the whole write
// (at least minSndBuf); a write too large for the pool gets none, and
// enqueue's appends grow an array the connection then keeps.
func (c *Conn) Writev(bufs ...[]byte) { c.enqueue(nil, bufs...) }

// WriteStatic is Writev(head, body) that copies only head: body is
// transmitted from where it lies, and the caller must never modify it
// again — segments, the peer's reassembly queue and late duplicates go on
// referencing it after the connection is done with it. What reaches the
// wire, byte for byte and segment for segment, is what Writev would send.
func (c *Conn) WriteStatic(head, body []byte) { c.enqueue(body, head) }

// enqueue appends the bytes of bufs, by copy, and then tail, by
// reference, to the stream. Owned bytes precede the borrowed tail, so
// whatever is left of an earlier tail is taken in by copy first.
func (c *Conn) enqueue(tail []byte, bufs ...[]byte) {
	if c.state == StateClosed || c.finQueued {
		return
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total+len(tail) == 0 {
		return
	}
	if own := len(c.sndTail) + total; own > 0 {
		if c.sndBuf == nil {
			// Room as well for what the segment that straddles into the
			// tail will bring over (see stream).
			c.sndBuf = c.net.AllocBuf(max(own+min(len(tail), c.cfg.MSS), minSndBuf))
		}
		c.sndBuf = append(c.sndBuf, c.sndTail...)
		for _, b := range bufs {
			c.sndBuf = append(c.sndBuf, b...)
		}
	}
	c.sndTail = nil
	if len(tail) > 0 {
		c.sndTail = tail
	}
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend()
	}
}

// buffered returns the number of live stream bytes, owned then borrowed.
func (c *Conn) buffered() int { return len(c.sndBuf) - c.sndHead + len(c.sndTail) }

// unsent returns how many buffered bytes have not been transmitted yet:
// those from sndNxt on.
func (c *Conn) unsent() int {
	if rel, live := int(c.sndNxt-c.bufSeq), c.buffered(); rel <= live {
		return live - rel
	}
	return 0 // sndNxt is past the FIN
}

// stream returns the n live bytes that start rel bytes past bufSeq as one
// capacity-capped slice, of sndBuf or of the borrowed tail. A run that
// straddles the two first moves the boundary: the bytes it needs from the
// tail are appended to sndBuf, past anything already handed out, so the
// stream is never described by more than the one split point.
func (c *Conn) stream(rel, n int) []byte {
	off := c.sndHead + rel
	if t := off - len(c.sndBuf); t >= 0 {
		return c.sndTail[t : t+n : t+n]
	}
	if short := off + n - len(c.sndBuf); short > 0 {
		c.sndBuf = append(c.sndBuf, c.sndTail[:short]...)
		c.trimTail(short)
	}
	return c.sndBuf[off : off+n : off+n]
}

// trimTail drops the first n bytes of the borrowed tail and, with the
// last of them, the connection's reference to the caller's array.
func (c *Conn) trimTail(n int) {
	if c.sndTail = c.sndTail[n:]; len(c.sndTail) == 0 {
		c.sndTail = nil
	}
}

// Close queues a FIN after any buffered data. Data already written is
// still delivered.
func (c *Conn) Close() {
	if c.state == StateClosed || c.finQueued {
		return
	}
	c.finQueued = true
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend()
	}
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.sendSegment(netsim.FlagRST, c.sndNxt, c.rcvNxt, nil)
	c.teardown()
}

// teardown releases resources without notifying the peer.
func (c *Conn) teardown() {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.rtxTimer.Stop()
	c.probeTimer.Stop()
	// rtxBufs are NOT released here: retransmitted packets referencing
	// them may still be in flight, and the conn going away does not stop
	// their delivery. They are garbage-collected with the conn.
	//
	// The send buffer goes back to the pool only if no byte of it was
	// transmitted and not yet acknowledged. Otherwise it is dropped, like
	// the reassembly queue: a closed conn never reads either again, while
	// applications keep closed conns around for their stats, and a
	// zero-copy segment still in flight (or parked at the peer) keeps the
	// array alive by itself — and may still be read.
	if seqLEQ(c.sndNxt, c.bufSeq) {
		c.net.ReleaseBuf(c.sndBuf)
	}
	c.sndBuf, c.sndHead, c.sndTail, c.reasm = nil, 0, nil, nil
	c.host.Unregister(c.local.Port, c.remote)
}

func (c *Conn) fail(err error) {
	if c.state == StateClosed {
		return
	}
	c.teardown()
	if c.cb.OnFail != nil {
		c.cb.OnFail(c, err)
	}
}

func (c *Conn) sendSegment(flags netsim.TCPFlags, seq, ack uint32, payload []byte) {
	if !c.host.Alive() {
		return // a failed machine transmits nothing
	}
	pkt := c.net.AllocPacket()
	pkt.Src, pkt.Dst = c.local, c.remote
	pkt.Flags, pkt.Seq, pkt.Ack = flags, seq, ack
	pkt.Window = c.cfg.ReceiveWindow
	pkt.Payload = payload
	if len(payload) > 0 {
		c.BytesSent += uint64(len(payload))
	}
	c.net.Send(pkt)
}

// inflight returns bytes sent but not yet acknowledged.
func (c *Conn) inflight() uint32 { return c.sndNxt - c.sndUna }

// trySend transmits as much buffered data (and the queued FIN) as the
// congestion and peer windows allow.
func (c *Conn) trySend() {
	wnd := c.cwnd
	if c.peerWnd < wnd {
		wnd = c.peerWnd
	}
	for {
		if avail := c.unsent(); avail > 0 {
			if c.inflight() >= wnd {
				return
			}
			n := min(c.cfg.MSS, avail, int(wnd-c.inflight()))
			// Zero-copy: hand out a capacity-capped sub-slice of sndBuf or
			// of the borrowed tail. The tail is never written at all; sndBuf
			// is safe because the head only advances on ACK, appends land
			// past the high-water mark, and the array returns to the pool
			// only once every owned byte is acknowledged — at which point
			// any slice of it still in flight is a duplicate the receiver
			// trims without reading (see applyAck).
			seg := c.stream(int(c.sndNxt-c.bufSeq), n)
			flags := netsim.FlagACK
			if n == avail {
				flags |= netsim.FlagPSH
			}
			c.sendSegment(flags, c.sndNxt, c.rcvNxt, seg)
			c.sndNxt += uint32(n)
			c.ensureRtx()
			continue
		}
		// All payload streamed; maybe send FIN.
		if c.finQueued && !c.finSent {
			c.finSent = true
			c.finSeq = c.sndNxt
			c.sendSegment(netsim.FlagFIN|netsim.FlagACK, c.sndNxt, c.rcvNxt, nil)
			c.sndNxt++
			if c.state == StateEstablished {
				c.state = StateFinWait
			} else if c.state == StateCloseWait {
				c.state = StateLastAck
			}
			c.ensureRtx()
		}
		return
	}
}

func (c *Conn) ensureRtx() {
	if !c.rtxTimer.Active() && c.inflight() > 0 {
		c.armRtx(c.currentRTO())
	}
}

func (c *Conn) currentRTO() time.Duration {
	rto := c.cfg.RTO
	for i := 0; i < c.rtxBackoff; i++ {
		rto *= 2
		if rto >= c.cfg.MaxRTO {
			return c.cfg.MaxRTO
		}
	}
	return rto
}

func (c *Conn) armRtx(d time.Duration) {
	c.rtxTimer.Stop()
	c.rtxTimer = c.net.Schedule(d, c.rtxFn)
}

func (c *Conn) onRtxTimeout() {
	c.rtxTimer = netsim.Timer{}
	if c.state == StateClosed {
		return
	}
	if c.rtxBackoff >= c.cfg.MaxRetries {
		c.fail(ErrTimeout)
		return
	}
	c.rtxBackoff++
	c.Retransmits++
	switch c.state {
	case StateSynSent:
		c.sendSegment(netsim.FlagSYN, c.iss, 0, nil)
		c.armRtx(c.cfg.SynRTO) // Linux keeps the SYN timer fixed-ish; good enough
		return
	case StateSynReceived:
		c.sendSegment(netsim.FlagSYN|netsim.FlagACK, c.iss, c.rcvNxt, nil)
		c.armRtx(c.cfg.SynRTO)
		return
	}
	// Retransmit the oldest unacked segment; classic multiplicative decrease.
	c.ssthresh = c.inflight() / 2
	if min := uint32(2 * c.cfg.MSS); c.ssthresh < min {
		c.ssthresh = min
	}
	c.cwnd = uint32(c.cfg.MSS)
	c.retransmitOldest()
	c.armRtx(c.currentRTO())
}

func (c *Conn) retransmitOldest() {
	if c.finSent && c.sndUna == c.finSeq {
		c.sendSegment(netsim.FlagFIN|netsim.FlagACK, c.finSeq, c.rcvNxt, nil)
		return
	}
	// Never past sndNxt: bytes the first transmission did not send (a
	// peer window under one MSS cut it short) would draw an ACK that
	// processAck rejects as out of range, every time.
	rel := int(c.sndUna - c.bufSeq)
	n := min(c.cfg.MSS, c.buffered()-rel, int(c.sndNxt-c.sndUna))
	if n <= 0 {
		return
	}
	// Copy-on-retransmit: retransmits get a private pooled copy so the
	// zero-copy invariant (in-flight slices reference sndBuf strictly
	// below the append watermark) only has to hold for first
	// transmissions. processAck recycles the copy once the cumulative
	// ACK covers it.
	seg := append(c.net.AllocBuf(n), c.stream(rel, n)...)
	c.rtxBufs = append(c.rtxBufs, rtxBuf{end: c.sndUna + uint32(n), buf: seg})
	c.sendSegment(netsim.FlagACK|netsim.FlagPSH, c.sndUna, c.rcvNxt, seg)
}

// HandleSegment implements netsim.PortHandler. The connection is the
// packet's terminal consumer: any payload bytes that outlive this call
// (reassembly queue, application callbacks) are either referenced
// independently of the packet struct or copied by the application, so
// the struct is released back to the pool on return.
func (c *Conn) HandleSegment(pkt *netsim.Packet) {
	c.handleSegment(pkt)
	c.net.ReleasePacket(pkt)
}

// HandleSegmentBatch implements netsim.BatchPortHandler: the host hands
// over a run of same-connection segments in one call. Runs of bare
// cumulative ACKs — the dominant receive shape for a bulk sender — are
// processed as one applyAck at the run's maximum in-range ACK, with
// cwnd growth replayed per advancing segment and one rtx-timer
// reconcile instead of a stop/arm pair per segment. Everything else
// replays the scalar per-segment path, so wire behavior is identical
// to per-packet delivery by construction (pinned by
// FuzzBatchDispatchDifferential). If the connection closes itself
// mid-run, the remainder re-enters host demux exactly as scalar
// delivery would have routed it (listener RST responder or default).
func (c *Conn) HandleSegmentBatch(pkts []*netsim.Packet) {
	for i := 0; i < len(pkts); i++ {
		if c.state == StateClosed {
			for _, p := range pkts[i:] {
				c.host.Demux(p)
			}
			return
		}
		if j := c.bareAckRunEnd(pkts, i); j-i >= 2 {
			c.processAckRun(pkts[i:j])
			for _, p := range pkts[i:j] {
				c.net.ReleasePacket(p)
			}
			i = j - 1
			continue
		}
		c.handleSegment(pkts[i])
		c.net.ReleasePacket(pkts[i])
	}
}

// bareAckRunEnd returns j such that pkts[i:j] is the longest run
// starting at i that the cumulative-ACK fast path may process as one
// unit. The gates guarantee the scalar path for each such segment is
// exactly {peerWnd update, processAck}: established with no FIN in
// either direction (maybeFinish is a no-op), and no unsent payload or
// queued FIN (trySend cannot emit). All gate inputs are invariant
// across a run of such segments — no payload means no callbacks, so no
// Write/Close can run — so checking once up front is sound.
func (c *Conn) bareAckRunEnd(pkts []*netsim.Packet, i int) int {
	if c.state != StateEstablished || c.finQueued || c.finSent || c.peerFin {
		return i
	}
	if c.unsent() > 0 {
		return i // unsent payload: scalar trySend would transmit
	}
	j := i
	for j < len(pkts) && pkts[j].Flags == netsim.FlagACK && len(pkts[j].Payload) == 0 {
		j++
	}
	return j
}

// processAckRun applies a run of bare ACKs cumulatively: every
// segment's window update lands (last writer wins, as scalar), the
// maximum in-range cumulative ACK is applied once with cwnd growth
// replayed per advancing segment, and duplicate or out-of-range ACKs
// are skipped exactly as processAck would have skipped them.
func (c *Conn) processAckRun(pkts []*netsim.Packet) {
	cur := c.sndUna
	advances := 0
	for _, p := range pkts {
		c.peerWnd = p.Window
		if c.peerWnd == 0 {
			c.peerWnd = 1 // never wedge: simulate persist probes trivially
		}
		if seqLT(cur, p.Ack) && seqLEQ(p.Ack, c.sndNxt) {
			cur = p.Ack
			advances++
		}
	}
	if advances > 0 {
		c.applyAck(cur, advances)
	}
}

func (c *Conn) handleSegment(pkt *netsim.Packet) {
	if c.state == StateClosed {
		return
	}
	if pkt.Flags.Has(netsim.FlagRST) {
		c.fail(ErrReset)
		return
	}
	c.peerWnd = pkt.Window
	if c.peerWnd == 0 {
		c.peerWnd = 1 // never wedge: simulate persist probes trivially
	}
	switch c.state {
	case StateSynSent:
		c.handleSynSent(pkt)
	case StateSynReceived:
		c.handleSynReceived(pkt)
	default:
		c.handleEstablished(pkt)
	}
}

func (c *Conn) handleSynSent(pkt *netsim.Packet) {
	if !pkt.Flags.Has(netsim.FlagSYN | netsim.FlagACK) {
		return
	}
	if pkt.Ack != c.iss+1 {
		return // stale
	}
	c.rcvNxt = pkt.Seq + 1
	c.sndUna = pkt.Ack
	c.rtxBackoff = 0
	c.rtxTimer.Stop()
	c.state = StateEstablished
	c.armProbe()
	c.sendSegment(netsim.FlagACK, c.sndNxt, c.rcvNxt, nil)
	if c.cb.OnEstablished != nil {
		c.cb.OnEstablished(c)
	}
	c.trySend()
}

func (c *Conn) handleSynReceived(pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagSYN) && !pkt.Flags.Has(netsim.FlagACK) {
		// Duplicate SYN: retransmit our SYN-ACK.
		c.sendSegment(netsim.FlagSYN|netsim.FlagACK, c.iss, c.rcvNxt, nil)
		return
	}
	if !pkt.Flags.Has(netsim.FlagACK) || pkt.Ack != c.iss+1 {
		return
	}
	c.sndUna = pkt.Ack
	c.rtxBackoff = 0
	c.rtxTimer.Stop()
	c.state = StateEstablished
	c.armProbe()
	if c.cb.OnEstablished != nil {
		c.cb.OnEstablished(c)
	}
	// The handshake ACK may carry data (common when the client sends the
	// HTTP request immediately).
	if len(pkt.Payload) > 0 || pkt.Flags.Has(netsim.FlagFIN) {
		c.handleEstablished(pkt)
		return
	}
	c.trySend()
}

func (c *Conn) handleEstablished(pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagACK) {
		c.processAck(pkt.Ack)
		if c.state == StateClosed {
			return
		}
	}
	if len(pkt.Payload) > 0 || pkt.Flags.Has(netsim.FlagFIN) {
		// Every data segment is acknowledged at once, in order or not (an
		// out-of-order one draws the duplicate ACK), even when the
		// application already answered from inside OnData.
		c.processData(pkt)
		c.sendAck()
	}
	c.maybeFinish()
	if c.state != StateClosed {
		c.trySend()
	}
}

// sendAck emits a bare ACK for everything received.
func (c *Conn) sendAck() {
	c.sendSegment(netsim.FlagACK, c.sndNxt, c.rcvNxt, nil)
}

func (c *Conn) processAck(ack uint32) {
	if !seqLT(c.sndUna, ack) || !seqLEQ(ack, c.sndNxt) {
		return // duplicate or out-of-range
	}
	c.applyAck(ack, 1)
}

// applyAck advances sndUna to ack — already validated as in-range and
// advancing — releasing covered buffer bytes and reconciling the rtx
// timer once. growths is the number of advancing ACKs this cumulative
// apply stands for: the congestion window grows once per original ACK
// (the formula depends only on the evolving cwnd, so replaying it
// growths times yields exactly the scalar per-segment result).
func (c *Conn) applyAck(ack uint32, growths int) {
	c.sndUna = ack
	c.rtxBackoff = 0
	// Release acknowledged bytes from the buffer, owned ones first. FIN
	// occupies sequence space but no buffer space.
	live := c.buffered()
	drop := int(c.sndUna - c.bufSeq)
	if c.finSent && seqLT(c.finSeq, c.sndUna) {
		drop = live
	}
	if drop > live {
		drop = live
	}
	if drop > 0 {
		c.bufSeq += uint32(drop)
		if past := c.sndHead + drop - len(c.sndBuf); past > 0 {
			drop -= past
			c.trimTail(past)
		}
		c.sndHead += drop
	}
	if c.sndHead == len(c.sndBuf) && c.sndHead > 0 {
		// Every owned byte is acknowledged, so the connection owns no send
		// buffer until its next Write: the array goes back to the pool,
		// where that Write — or another connection's — finds it warm. (An
		// array too large for the pool stays, rewound, with the connection
		// that grew it.) Owned bytes precede the borrowed tail, so a
		// cumulative ACK that covers them means they are delivered: any
		// first-transmission slice of the array still in flight is now
		// entirely below the receiver's rcvNxt, and its bytes are trimmed
		// without being read whoever overwrites them. The tail needs no
		// such argument, nobody ever overwrites it.
		c.sndBuf, c.sndHead = c.net.ReleaseBuf(c.sndBuf), 0
	}
	// Recycle retransmit copies the cumulative ACK now covers. Any
	// still-in-flight duplicate referencing one is entirely below the
	// receiver's rcvNxt and gets trimmed without its bytes being read.
	if len(c.rtxBufs) > 0 {
		i := 0
		for i < len(c.rtxBufs) && seqLEQ(c.rtxBufs[i].end, c.sndUna) {
			c.net.ReleaseBuf(c.rtxBufs[i].buf)
			c.rtxBufs[i].buf = nil
			i++
		}
		if i > 0 {
			c.rtxBufs = append(c.rtxBufs[:0], c.rtxBufs[i:]...)
		}
	}
	// Congestion window growth: slow start below ssthresh, else additive.
	for i := 0; i < growths; i++ {
		if c.cwnd < c.ssthresh {
			c.cwnd += uint32(c.cfg.MSS)
		} else {
			c.cwnd += uint32(c.cfg.MSS) * uint32(c.cfg.MSS) / c.cwnd
		}
	}
	c.rtxTimer.Stop()
	if c.inflight() > 0 {
		c.armRtx(c.currentRTO())
	}
}

// processData ingests payload/FIN: in order, or parked for reassembly.
func (c *Conn) processData(pkt *netsim.Packet) {
	seq := pkt.Seq
	data := pkt.Payload
	fin := pkt.Flags.Has(netsim.FlagFIN)

	// Trim data already received.
	if seqLT(seq, c.rcvNxt) {
		skip := c.rcvNxt - seq
		if uint32(len(data)) <= skip {
			if !fin || c.peerFin {
				return
			}
			data = nil
			seq = c.rcvNxt
			if seqLT(pkt.SeqEnd()-1, c.rcvNxt) {
				return // entirely old, FIN included
			}
		} else {
			data = data[skip:]
			seq = c.rcvNxt
		}
	}
	if seq != c.rcvNxt {
		// Out of order: park for reassembly. The slice is retained as-is
		// (zero-copy); see reasmSeg for why that is safe.
		c.stashReasm(reasmSeg{seq: seq, data: data, fin: fin})
		return
	}
	c.ingest(data, fin)
	// Drain any contiguous parked segments.
	for {
		idx := -1
		for i, s := range c.reasm {
			if seqLEQ(s.seq, c.rcvNxt) {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		s := c.reasm[idx]
		c.reasm = append(c.reasm[:idx], c.reasm[idx+1:]...)
		d := s.data
		if skip := c.rcvNxt - s.seq; skip > 0 {
			if uint32(len(d)) <= skip {
				d = nil
			} else {
				d = d[skip:]
			}
		}
		c.ingest(d, s.fin)
	}
}

func (c *Conn) stashReasm(s reasmSeg) {
	for _, e := range c.reasm {
		if e.seq == s.seq && len(e.data) >= len(s.data) {
			return // duplicate
		}
	}
	c.reasm = append(c.reasm, s)
	sort.Slice(c.reasm, func(i, j int) bool { return seqLT(c.reasm[i].seq, c.reasm[j].seq) })
}

func (c *Conn) ingest(data []byte, fin bool) {
	if len(data) > 0 {
		c.rcvNxt += uint32(len(data))
		c.BytesRecv += uint64(len(data))
		if c.cb.OnData != nil {
			c.cb.OnData(c, data)
		}
	}
	if fin && !c.peerFin {
		c.peerFin = true
		c.rcvNxt++
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
		case StateFinWait:
			// Both directions closing; maybeFinish completes it.
		}
		if c.cb.OnPeerClose != nil {
			c.cb.OnPeerClose(c)
		}
	}
}

// maybeFinish closes the connection once both FINs are exchanged and ours
// is acknowledged.
func (c *Conn) maybeFinish() {
	if c.state == StateClosed {
		return
	}
	ourFinAcked := c.finSent && seqLT(c.finSeq, c.sndUna)
	if ourFinAcked && c.peerFin {
		c.teardown()
		if c.cb.OnClose != nil {
			c.cb.OnClose(c)
		}
	} else if c.state == StateLastAck && ourFinAcked {
		c.teardown()
		if c.cb.OnClose != nil {
			c.cb.OnClose(c)
		}
	}
}
