package netsim

import "fmt"

// PortHandler receives packets addressed to one local port of a Host.
type PortHandler interface {
	HandleSegment(pkt *Packet)
}

// PortHandlerFunc adapts a function to the PortHandler interface.
type PortHandlerFunc func(pkt *Packet)

// HandleSegment calls f(pkt).
func (f PortHandlerFunc) HandleSegment(pkt *Packet) { f(pkt) }

// BatchPortHandler is an optional extension of PortHandler: the host's
// batch demux hands a run of consecutive same-connKey segments over in
// one call, amortizing the conns probe across the run. The handler must
// be observably equivalent to per-segment HandleSegment calls in order;
// in particular, if processing segment i changes where later segments
// of the run would demux (the connection unregisters itself), the
// handler must push the remainder back through Host.Demux — see
// tcp.Conn.HandleSegmentBatch. The slice is scratch owned by the host
// and must not be retained.
//
// A handler's kind is settled when it is registered (RegisterBatch, or
// Register's check) or set (SetDefault), never per run: an interface
// type assertion on the packet path would fill the runtime's per-site
// assertion cache at random moments, so the same run would allocate
// differently from one process to the next.
type BatchPortHandler interface {
	PortHandler
	HandleSegmentBatch(pkts []*Packet)
}

// scalarHandler is a handler that takes no runs, as the host holds it: a
// run goes through Demux one segment at a time, as handling each may
// change where the next demuxes (a listener's accept registers a
// connection).
type scalarHandler struct {
	PortHandler
	host *Host
}

func (s *scalarHandler) HandleSegmentBatch(pkts []*Packet) {
	for _, p := range pkts {
		s.host.Demux(p)
	}
}

// asBatch returns handler as the host holds it: itself if it takes runs,
// else wrapped in a scalarHandler, allocated here.
func (h *Host) asBatch(handler PortHandler) BatchPortHandler {
	if bh, ok := handler.(BatchPortHandler); ok {
		return bh
	}
	return &scalarHandler{handler, h}
}

// connKey demuxes established connections: local port plus remote
// endpoint, packed into one word (local port << 48 | remote IP << 16 |
// remote port), the key of the host's connTable. Listeners are keyed by
// local port alone.
type connKey uint64

func mkConnKey(localPort uint16, remote HostPort) connKey {
	return connKey(uint64(localPort)<<48 | uint64(remote.IP)<<16 | uint64(remote.Port))
}

func (k connKey) localPort() uint16 { return uint16(k >> 48) }

// Host is a convenience node that owns one IP address and demultiplexes
// incoming segments to per-connection or per-listener handlers, the way a
// kernel demuxes to sockets. TCP endpoints and simulated servers build on
// it.
type Host struct {
	net *Network
	ip  IP
	// conns holds the established connections and counts them per local
	// port, so AllocPort is O(1) instead of a scan of every connection.
	conns     connTable
	listeners map[uint16]PortHandler
	nextPort  uint16
	dead      bool
	// batchScratch backs the sub-run slice HandleBatch hands to a
	// BatchPortHandler; reused across runs, never retained by handlers.
	batchScratch []*Packet
	// def, when non-nil, receives packets that match no connection or
	// listener (SetDefault).
	def BatchPortHandler
}

// NewHost creates a host, attaches it to the network at ip, and returns
// it. Ephemeral ports are allocated starting at 32768.
func NewHost(n *Network, ip IP) *Host {
	h := &Host{
		net:       n,
		ip:        ip,
		listeners: make(map[uint16]PortHandler),
		nextPort:  32768,
	}
	n.Attach(ip, h)
	return h
}

// Network returns the network the host is attached to.
func (h *Host) Network() *Network { return h.net }

// IP returns the host's address.
func (h *Host) IP() IP { return h.ip }

// AllocPort returns a free ephemeral port. It panics if the port space is
// exhausted, which indicates a connection leak in a simulation.
func (h *Host) AllocPort() uint16 {
	for i := 0; i < 65536; i++ {
		p := h.nextPort
		h.nextPort++
		if h.nextPort == 0 {
			h.nextPort = 32768
		}
		if p == 0 {
			continue
		}
		if _, busy := h.listeners[p]; busy {
			continue
		}
		// A port is reusable when no connection currently uses it locally.
		if h.conns.refs(p) == 0 {
			return p
		}
	}
	panic(fmt.Sprintf("netsim: host %s out of ephemeral ports", h.ip))
}

// Listen registers handler for new segments addressed to port that match
// no established connection.
func (h *Host) Listen(port uint16, handler PortHandler) {
	h.listeners[port] = handler
}

// Unlisten removes the listener on port.
func (h *Host) Unlisten(port uint16) { delete(h.listeners, port) }

// Register binds an established-connection handler, which must not be
// nil, for segments arriving at localPort from remote. A handler that is
// a BatchPortHandler takes runs, as with RegisterBatch; any other is
// wrapped, at one allocation.
func (h *Host) Register(localPort uint16, remote HostPort, handler PortHandler) {
	if handler == nil {
		panic("netsim: Register of a nil handler")
	}
	h.RegisterBatch(localPort, remote, h.asBatch(handler))
}

// RegisterBatch is Register of a handler that takes runs, without a
// check of its kind: the one a transport calls per connection.
func (h *Host) RegisterBatch(localPort uint16, remote HostPort, handler BatchPortHandler) {
	if h.conns.put(mkConnKey(localPort, remote), handler) {
		h.conns.ref(localPort)
	}
}

// SetDefault makes handler (nil for none) receive what matches no
// connection or listener: a machine's RSTs, or a raw packet driver. A
// handler that is a BatchPortHandler takes runs.
func (h *Host) SetDefault(handler PortHandler) {
	h.def = nil
	if handler != nil {
		h.def = h.asBatch(handler)
	}
}

// Unregister removes an established-connection binding.
func (h *Host) Unregister(localPort uint16, remote HostPort) {
	if h.conns.del(mkConnKey(localPort, remote)) {
		h.conns.unref(localPort)
	}
}

// Detach removes the host from the network; pending packets to it are
// dropped and the host goes silent (a dead machine neither receives nor
// transmits — timers owned by its protocol stacks must check Alive before
// emitting packets). Used to model machine failure.
func (h *Host) Detach() {
	h.dead = true
	h.net.Detach(h.ip)
}

// Reattach re-registers the host on the network after a Detach.
func (h *Host) Reattach() {
	h.dead = false
	h.net.Attach(h.ip, h)
}

// Reset clears every connection and listener registration plus the
// default handler — the kernel state wipe of a machine reboot.
// Detach → Reset → (rebuild handlers) → Reattach models a host restart;
// without the reset, handlers of the previous incarnation would keep
// receiving packets addressed to their old connections.
func (h *Host) Reset() {
	h.conns = connTable{}
	h.listeners = make(map[uint16]PortHandler)
	h.def = nil
}

// Alive reports whether the host is attached (not failed).
func (h *Host) Alive() bool { return !h.dead }

// decap strips one layer of encapsulation, matching IP-in-IP behaviour
// where the host terminates the tunnel. Pooled packets are stripped in
// place; unpooled ones (their sender may keep them) are shallow-copied.
func (h *Host) decap(pkt *Packet) *Packet {
	if pkt.Outer == nil {
		return pkt
	}
	if pkt.Pooled() {
		// The host owns a pooled packet; strip the tunnel in place.
		pkt.Outer = nil
		return pkt
	}
	inner := *pkt
	inner.Outer = nil
	return &inner
}

// Demux routes an already-decapsulated segment to its connection,
// listener, or default handler — the tail of HandlePacket — and releases
// one none of them takes (a late ACK for a closed conn). Exposed so a
// BatchPortHandler that invalidates its own demux entry mid-run (a
// connection that closes itself) can re-route the run's remaining
// segments exactly as scalar delivery would have.
func (h *Host) Demux(pkt *Packet) {
	if c := h.conns.get(mkConnKey(pkt.Dst.Port, pkt.Src)); c != nil {
		c.HandleSegment(pkt)
		return
	}
	if l, ok := h.listeners[pkt.Dst.Port]; ok {
		l.HandleSegment(pkt)
		return
	}
	if h.def != nil {
		h.def.HandleSegment(pkt)
		return
	}
	h.net.ReleasePacket(pkt)
}

// HandlePacket implements Node.
func (h *Host) HandlePacket(pkt *Packet) {
	h.Demux(h.decap(pkt))
}

// HandleBatch implements BatchNode: one conns probe per run of
// consecutive same-connKey segments, instead of per segment. The demux
// decision for a run is made once, before its first segment is
// processed; a handler whose processing invalidates that decision
// mid-run re-routes via Demux (see BatchPortHandler). Runs that do not
// resolve to a batch-capable handler replay the exact scalar path —
// full per-segment demux — so listener accepts that register a
// connection mid-run (SYN then ACK in one train) demux identically.
func (h *Host) HandleBatch(pkts []*Packet) {
	run := h.batchScratch[:0]
	var runKey connKey
	for _, pkt := range pkts {
		pkt = h.decap(pkt)
		k := mkConnKey(pkt.Dst.Port, pkt.Src)
		if len(run) > 0 && k == runKey {
			run = append(run, pkt)
			continue
		}
		h.flushRun(run, runKey)
		run = append(run[:0], pkt)
		runKey = k
	}
	h.flushRun(run, runKey)
	// Drop the run's packets: a packet the pool let go must not stay
	// reachable from here.
	clear(run[:min(len(pkts), cap(run))])
	h.batchScratch = run[:0]
}

// flushRun dispatches one same-connKey run. A run of length ≥ 2 goes to
// its handler — the registered connection, or the default handler when
// the key matches neither a connection nor a listener — in one call,
// which a scalarHandler replays segment by segment; everything else goes
// through per-segment Demux, which re-probes per segment exactly like
// scalar delivery.
func (h *Host) flushRun(run []*Packet, k connKey) {
	if len(run) == 0 {
		return
	}
	if len(run) > 1 {
		target := h.conns.get(k)
		if target == nil {
			if _, listening := h.listeners[k.localPort()]; !listening {
				target = h.def
			}
		}
		if target != nil {
			target.HandleSegmentBatch(run)
			return
		}
	}
	for _, p := range run {
		h.Demux(p)
	}
}
