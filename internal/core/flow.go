package core

import (
	"time"

	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/securesim"
	"repro/internal/stateless"
)

// flow is the in-memory state for one balanced connection. Everything
// needed to take the flow over after a failure is mirrored in TCPStore;
// the rest (buffers, parsers, timers) is reconstructible. The one-byte
// fields share one word, so a flow fits the 240-byte size class
// (TestFlowSizeClass).
type flow struct {
	in     *Instance       // the owner, for the flow's timers (idleDue, flowDue)
	vip    netsim.HostPort // VIP:port the client connected to
	client netsim.HostPort
	server netsim.HostPort
	snat   netsim.HostPort // VIP-side endpoint toward the backend
	// A keep-alive switch's old backend and SNAT port (oldServerTuple),
	// held from the re-dial to storage-b's commit; oldServerIP is 0
	// outside a switch. Three fields, not two HostPorts, to fit one word.
	oldServerIP   netsim.IP
	oldServerPort uint16
	oldSNATPort   uint16

	clientISN uint32
	c         uint32 // our ISN facing the client
	s         uint32 // backend ISN
	delta     uint32 // seqToClient = seqFromServer + delta

	state flowState // see state.go
	// adopted marks a flow installRecovered built: its dead owner may
	// have relayed the backend's FIN (halfClosedCopy).
	adopted     bool
	gen         uint32 // lives this object has ended (retire)
	backendName string
	keepAlive   bool
	// stateless is decided once, at the SYN: hybrid mode is on and this
	// instance is the head of the flow's rendezvous chain. Only such a
	// flow skips storage-a, draws its split from the table, asks for the
	// cookie-coded port and may skip storage-b (see hybrid.go).
	stateless bool
	// persisted tracks whether any record for this flow was (or may have
	// been) written to TCPStore. Always true on the paper-faithful path;
	// stateless flows that skip their barriers stay false, which gates the
	// teardown deletes (nothing to delete) and marks them for the
	// epoch-bump flush.
	persisted  bool
	retired    bool // torn down and filed for reuse (retire)
	synAckSent bool
	clientFin  bool
	serverFin  bool
	// idxRefs is the number of tuple orientations pointing at the flow's
	// slot in the flow index (see flowindex.go), idxSlot that slot+1
	// (0 = unindexed).
	idxRefs uint8
	idxSlot uint32

	// The client's byte stream: the connection phase assembles it into
	// reqBuf, keep-alive inspection into kaState.held.
	reqBuf     []byte
	fromClient assembler

	// Tunneling bookkeeping: the next client-facing seq the server side
	// will use.
	toClientNext uint32

	// Keep-alive (inspected tunnel) state; see keepalive.go.
	ka *kaState

	// TLS termination state; see tls.go.
	tls *flowTLS

	// Timers, all stored so unlink stops them. The idle timer's owner is
	// the flow as an idleDue; the lookup delay, the dial retries and the
	// linger share the one as a flowDue (onFlowTimer).
	idleTimer   netsim.Timer
	dialTimer   netsim.Timer
	lingerTimer netsim.Timer
	dialTries   int

	dialStart  time.Duration // backend selection began, for the Figure 9 breakdown
	lastActive time.Duration
}

// idleDue and flowDue are a flow as the owner of its idle timer and of
// its other timers: arming one binds no closure.
type (
	idleDue flow
	flowDue flow
)

func (t *idleDue) Fire() { f := (*flow)(t); f.in.onIdle(f) }
func (t *flowDue) Fire() { f := (*flow)(t); f.in.onFlowTimer(f) }

func (f *flow) clientTuple() netsim.FourTuple {
	return netsim.FourTuple{Src: f.client, Dst: f.vip}
}

func (f *flow) serverTuple() netsim.FourTuple {
	return netsim.FourTuple{Src: f.server, Dst: f.snat}
}

// oldServerTuple is a keep-alive switch's old server tuple; its SNAT IP
// is the VIP's, as every SNAT endpoint's is.
func (f *flow) oldServerTuple() netsim.FourTuple {
	return netsim.FourTuple{
		Src: netsim.HostPort{IP: f.oldServerIP, Port: f.oldServerPort},
		Dst: netsim.HostPort{IP: f.vip.IP, Port: f.oldSNATPort},
	}
}

func (f *flow) touch(now time.Duration) { f.lastActive = now }

// fillRecord populates r — and ts, when the flow carries TLS state —
// with the flow's persistable state. Both are caller-owned (the instance
// reuses one of each across barrier writes) so building a record does
// not allocate.
func (f *flow) fillRecord(r *Record, ts *TLSState, phase FlowPhase) {
	*r = Record{
		Phase:       phase,
		Client:      f.client,
		VIP:         f.vip,
		ClientISN:   f.clientISN,
		Server:      f.server,
		SNAT:        f.snat,
		C:           f.c,
		S:           f.s,
		Delta:       f.delta,
		KeepAlive:   f.keepAlive,
		BackendName: f.backendName,
	}
	if f.tls != nil {
		*ts = TLSState{Key: f.tls.key, ServerHelloLen: uint16(f.tls.serverHelloLen)}
		r.TLS = ts
	}
}

// --- connection phase ---

// newClientFlow handles the first SYN of a connection: persist the client
// TCP header (storage-a), then answer with the deterministic SYN-ACK.
func (in *Instance) newClientFlow(pkt *netsim.Packet) {
	now := in.net.Now()
	in.CPU.Charge(now, in.cfg.CPUConnPhase)
	f := in.newFlow(flow{
		vip:          pkt.Dst,
		client:       pkt.Src,
		clientISN:    pkt.Seq,
		c:            isnHash(pkt.Src, pkt.Dst),
		fromClient:   assembler{next: pkt.Seq + 1},
		toClientNext: isnHash(pkt.Src, pkt.Dst) + 1,
		lastActive:   now,
	})
	in.flows.put(f.clientTuple(), f)
	in.note(evNewFlow, f.clientTuple())
	in.armIdle(f)
	// storage-a: the SYN header goes to TCPStore before the SYN-ACK, so a
	// failed instance's successor can regenerate the handshake state.
	//
	// A stateless flow skips storage-a entirely: everything a PhaseConn
	// record carries is derivable (C is the tuple hash any instance
	// computes, ClientISN is one less than the first retransmitted payload
	// byte), so the SYN-ACK goes out synchronously. TLS flows get their key
	// persisted later, at the tlsAdvance barrier, before it is needed.
	if in.cfg.Hybrid != nil {
		head, _ := in.cfg.Hybrid.Head(f.vip.IP, f.clientTuple())
		f.stateless = head == in.IP()
	}
	if f.stateless {
		in.note(evBarrierSkip, f.clientTuple())
		in.sendSynAck(f)
		return
	}
	in.writeBarrier(f, in.barrierEntries(f, PhaseConn, false), in.synAckFn)
}

func (in *Instance) sendSynAck(f *flow) {
	f.synAckSent = true
	// G1′: barrier or derivation — storage-a's commit; a stateless flow's C
	// and ClientISN are the tuple hash and the first retransmitted byte.
	in.net.Send(in.packet(f.vip, f.client, netsim.FlagSYN|netsim.FlagACK, f.c, f.clientISN+1, advWindow))
}

// advWindow is the window the instance advertises on the handshake and
// data segments it originates; its bare ACKs, FINs and RSTs advertise 0.
const advWindow = 1 << 20

// packet takes a pooled packet for a segment the instance sends. Every
// segment core puts on the wire is one (TestOneLifecycleSeam).
func (in *Instance) packet(src, dst netsim.HostPort, flags netsim.TCPFlags, seq, ack, win uint32) *netsim.Packet {
	p := in.net.AllocPacket()
	p.Src, p.Dst, p.Flags, p.Seq, p.Ack, p.Window = src, dst, flags, seq, ack, win
	return p
}

// connPhaseClientPacket ingests client segments until the HTTP header is
// complete, then selects the backend.
func (in *Instance) connPhaseClientPacket(f *flow, pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagSYN) {
		// Retransmitted SYN: regenerate the SYN-ACK (same C by hashing).
		if f.synAckSent {
			in.sendSynAck(f)
		}
		return
	}
	if pkt.Flags.Has(netsim.FlagRST) {
		in.teardown(f)
		return
	}
	if pkt.Flags.Has(netsim.FlagFIN) && len(pkt.Payload) == 0 {
		// Client gave up before sending a request.
		// G1′: no state — the flow ends here.
		in.net.Send(in.packet(f.vip, f.client, netsim.FlagFIN|netsim.FlagACK, f.c+1, pkt.SeqEnd(), 0))
		in.teardown(f)
		return
	}
	if len(pkt.Payload) == 0 {
		return // bare ACK completing the handshake
	}
	if f.tls != nil && f.tls.committed && pkt.Seq == f.clientISN+1 {
		in.resendServerHello(f, pkt.Payload)
	}
	prevLen := len(f.reqBuf)
	f.reqBuf = f.fromClient.appendTo(f.reqBuf, pkt.Seq, pkt.Payload)
	if f.state != stateConn {
		return // backend dial in progress; data is buffered for forwarding
	}
	// Even a retransmission of data already held (the instance died after
	// storage-a and we recovered) tries selection.
	if in.tlsAdvance(f, prevLen) || f.tls != nil && !f.tls.committed {
		return // handshake in progress, or its key barrier, which dispatches
	}
	in.tryDispatchRequest(f)
}

// tryDispatchRequest parses the (plaintext) request buffer and starts the
// backend dial when the header is complete.
func (in *Instance) tryDispatchRequest(f *flow) {
	if f.state != stateConn {
		return
	}
	complete, err := httpsim.ParseRequestHeader(&in.req, f.reqBuf)
	if err != nil {
		in.reject(f, 400, "malformed request")
		return
	}
	if !complete {
		in.persistHeader(f)
		return
	}
	in.selectAndDial(f, &in.req)
}

// persistHeader writes a connection-phase record that holds the partial
// header in reqBuf, then acknowledges those bytes, which a successor
// rebuilds from the record. Without the ACK a segment lost past the
// header's first is never resent: the client, with no SACK, resends from
// its oldest unacknowledged byte. Each segment that leaves the header
// incomplete, a retransmission too, writes again, which answers a lost
// ACK.
func (in *Instance) persistHeader(f *flow) {
	n := uint32(len(f.reqBuf))
	f.fillRecord(&in.recRecord, &in.recTLS, PhaseConn)
	in.recRecord.header = string(f.reqBuf)
	in.recScratch = in.recRecord.AppendMarshal(in.recScratch[:0])
	in.writeBarrier(f, in.flowEntries(f, in.recScratch, false), func(f *flow) {
		if f.state == stateConn {
			// G1′: barrier — the partial header's commit.
			in.net.Send(in.packet(f.vip, f.client, netsim.FlagACK, f.toClientDataBase(), f.clientDataBase()+n, advWindow))
		}
	})
}

// assembler puts one direction of a flow's byte stream back in order.
// Only the in-order stream is the caller's; segments that arrive ahead of
// it are parked here, copied, until the gap before them fills.
type assembler struct {
	next   uint32            // sequence number of the next in-order byte
	parked map[uint32][]byte // segments ahead of next, by their first byte's seq
}

// push takes one segment and returns the bytes it adds to the in-order
// stream, past next, which it advances beyond them. It returns nil for a
// duplicate, and for a segment ahead of next, which it parks; pop then
// yields each parked segment the stream reaches.
func (a *assembler) push(seq uint32, data []byte) []byte {
	if skip := seqDiff(a.next, seq); skip > 0 {
		if len(data) <= int(skip) {
			return nil
		}
		data = data[skip:]
	} else if skip < 0 {
		if a.parked == nil {
			a.parked = make(map[uint32][]byte)
		}
		a.parked[seq] = append([]byte(nil), data...)
		return nil
	}
	a.next += uint32(len(data))
	return data
}

// pop returns the parked segment that starts at next and advances past
// it, or nil when none does.
func (a *assembler) pop() []byte {
	d, ok := a.parked[a.next]
	if !ok {
		return nil
	}
	delete(a.parked, a.next)
	a.next += uint32(len(d))
	return d
}

// appendTo pushes a segment and appends to buf every byte it puts in
// order.
func (a *assembler) appendTo(buf []byte, seq uint32, data []byte) []byte {
	for d := a.push(seq, data); d != nil; d = a.pop() {
		buf = append(buf, d...)
	}
	return buf
}

// seqDiff returns a-b as a signed 32-bit distance.
func seqDiff(a, b uint32) int32 { return int32(a - b) }

// selectAndDial runs the rule scan (modelling its latency per Figure 6)
// and opens the backend connection. req is only read during the call.
func (in *Instance) selectAndDial(f *flow, req *httpsim.Request) {
	engine, ok := in.engines[f.vip.IP]
	if !ok {
		// The VIP is not assigned here (transient mapping states): best
		// effort is to reject quickly so the client retries.
		in.reject(f, 503, "vip not assigned to this instance")
		return
	}
	// The split draw: a stateless flow replaces the RNG with a tuple-keyed
	// uniform value so the decision is reproducible by any instance
	// holding the table (the write-time self-check and recovery replay
	// it); every other flow keeps the network's RNG draw.
	var draw float64
	if f.stateless {
		draw = in.cfg.Hybrid.Draw(f.clientTuple())
	} else {
		draw = in.rng.Float64()
	}
	decision := engine.Select(req, draw, in.info)
	lookup, scan := rules.LookupCost(decision.Scanned)
	in.CPU.Charge(in.net.Now(), scan)
	if !decision.OK {
		in.reject(f, 503, "no rule matched")
		return
	}
	// The SNAT port is claimed before any flow state mutates so an
	// exhausted range rejects cleanly: silently reusing an in-use port
	// would splice two live flows onto one backend tuple. A stateless flow
	// first tries the cookie-coded port the derivation layer predicts for
	// this tuple and epoch; on collision the sequential fallback port
	// fails the write-time self-check and the flow stays persisted.
	var port uint16
	var portOK bool
	if pref, pok := in.hybridPreferredPort(f); pok {
		port, portOK = in.allocSNATPortPreferred(pref)
	} else {
		port, portOK = in.allocSNATPort()
	}
	if !portOK {
		in.note(evSNATExhausted, f.clientTuple())
		in.reject(f, 503, "snat ports exhausted")
		return
	}
	f.dialStart = in.net.Now()
	// TLS flows stay pinned to their backend: re-selection would require
	// re-inspecting ciphertext mid-stream (documented simplification).
	f.keepAlive = req.KeepAlive() && f.tls == nil
	in.dial(f, decision.Backend, port)
	// Learn sticky bindings so subsequent sessions pin (Table 3 rule-4).
	if ck := sessionCookie(req); ck != "" {
		engine.Learn("cookie-table", ck, decision.Backend)
	}
	f.dialTimer = in.net.Arm(lookup, (*flowDue)(f)) // the lookup delay: sendServerSyn when it is over
}

// sessionCookie extracts the canonical session cookie if present.
func sessionCookie(req *httpsim.Request) string { return req.Cookie("session") }

// dial binds f to backend through its claimed SNAT port and enters
// Dialing: the first dial, after the lookup delay, and a keep-alive
// re-dial (keepalive.go), at once.
func (in *Instance) dial(f *flow, backend rules.Backend, port uint16) {
	in.setState(f, stateDialing)
	f.server = backend.Addr
	f.backendName = backend.Name
	f.snat = netsim.HostPort{IP: f.vip.IP, Port: port}
	in.flows.put(f.serverTuple(), f)
}

// dialBase is the client sequence number the backend connection's first
// byte carries. The SYN to the backend reuses the client's sequence
// numbering so that client data can later be forwarded without rewriting
// (§4.1): a first dial starts where the client's application data starts
// (for TLS flows the handshake bytes were consumed by the instance and
// are not forwarded), a keep-alive re-dial where the request that chose
// the new backend starts.
func (f *flow) dialBase() uint32 {
	if f.ka != nil {
		return f.ka.queue[0].startSeq
	}
	return f.clientDataBase()
}

func (in *Instance) sendServerSyn(f *flow) {
	// G1′: no state — a SYN commits the backend to nothing a successor
	// must rebuild; a SYN-ACK that no record names finds no flow.
	in.l4.SendViaSNAT(in.packet(f.snat, f.server, netsim.FlagSYN, f.dialBase()-1, 0, advWindow), in.IP())
	f.dialTries++
	in.net.Stop(f.dialTimer)
	f.dialTimer = in.net.Arm(3*time.Second, (*flowDue)(f))
}

// onFlowTimer tells them apart by the flow's state. In Dialing the lookup
// delay (dialTries 0) or a dial retry sends the next SYN, and the third
// unanswered one rejects the flow. The dial timer stops at the SYN-ACK,
// so any later one is the linger.
func (in *Instance) onFlowTimer(f *flow) {
	if in.flows.get(f.clientTuple()) != f {
		return
	}
	switch {
	case f.state == stateDialing && f.dialTries >= 3:
		in.reject(f, 503, "backend unreachable")
	case f.state == stateDialing:
		in.sendServerSyn(f)
	case f.clientFin && f.serverFin:
		in.teardown(f)
	}
}

// serverHandshakePacket completes the backend connection: storage-b, then
// ACK plus the request.
func (in *Instance) serverHandshakePacket(f *flow, pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagRST) {
		in.reject(f, 503, "backend refused")
		return
	}
	// dialTries is 0 once a SYN-ACK is accepted: a retransmitted one must
	// not write storage-b twice while the first write is in flight.
	if !pkt.Flags.Has(netsim.FlagSYN|netsim.FlagACK) || pkt.Ack != f.dialBase() || f.dialTries == 0 {
		return // stale handshake
	}
	in.net.Stop(f.dialTimer)
	f.dialTries = 0
	f.s = pkt.Seq
	// Translation: the backend's first data byte (S+1) must surface at the
	// client's next expected sequence number: after the SYN-ACK and, for
	// TLS, the ServerHello on a first dial; on a re-dial, after the bytes
	// the old backend already sent.
	f.delta = f.toClientNext - (f.s + 1)
	// storage-b: persist the full translation state under both tuple
	// orientations before ACKing the server (Figure 3). The two records
	// ride one batched store round trip.
	//
	// A stateless flow first dry-runs the derivation against the state
	// actually installed (hybrid.go): when every field matches, the write
	// is redundant — a successor derives the identical record — and the
	// barrier is skipped with the commit run synchronously. Any mismatch
	// (sticky hit, health drift, port-collision fallback, an epoch bump
	// since the SYN, TLS, a re-dial) keeps the flow on the persisted path,
	// so residue classification is sound without enumerating causes.
	if in.hybridDerivable(f) {
		in.note(evBarrierSkip, f.clientTuple())
		in.enterTunnel(f)
		return
	}
	if f.oldServerIP != 0 && f.persisted {
		// A keep-alive switch: the old server key goes in the same event as
		// the sets that replace it (redial).
		in.deleteKey(f.oldServerTuple())
	}
	in.writeBarrier(f, in.barrierEntries(f, PhaseTunnel, true), in.tunnelFn)
}

// enterTunnel is storage-b's commit: ACK the SYN-ACK, forward the request.
func (in *Instance) enterTunnel(f *flow) {
	if f.state != stateDialing {
		return
	}
	base, data := f.dialBase(), f.reqBuf
	if ka := f.ka; ka != nil {
		// A re-dial: reset the old backend, forward the request that chose
		// this backend, and follow the new backend's responses from its
		// first byte.
		in.closeOld(f)
		data = ka.pop().raw
		ka.respOutstanding++
		ka.fromServer = assembler{next: f.s + 1}
		ka.respBuf, ka.respBody = nil, 0
	} else {
		// The "connection" component of Figure 9: backend selection
		// through the backend handshake and storage-b (waiting for the
		// client's request is not the LB's doing and is excluded). A
		// re-dial is not a connection.
		in.ConnLat.Add(in.net.Now() - f.dialStart)
		if f.keepAlive {
			// Only the first request goes to this backend; pipelined
			// requests already buffered are re-selected individually.
			data = in.initKeepAlive(f)
		}
	}
	in.setState(f, stateTunnel)
	// ACK the SYN-ACK and forward the request bytes in the client's own
	// sequence space.
	// G1′: barrier or derivation — storage-b's commit, or the derivation
	// that a stateless flow's storage-b skip checked (hybridDerivable).
	in.l4.SendViaSNAT(in.packet(f.snat, f.server, netsim.FlagACK, base, f.s+1, advWindow), in.IP())
	in.forwardClientBytes(f, base, data)
	f.reqBuf = nil
}

// forwardClientBytes sends raw client payload to the backend in MSS-sized
// segments, preserving the client's sequence numbers. Payloads are
// capacity-capped sub-slices of data (zero-copy): the caller relinquishes
// the buffer (reqBuf is nilled after the forward), so the bytes are
// immutable from here on.
func (in *Instance) forwardClientBytes(f *flow, seq uint32, data []byte) {
	const mss = 1460
	for off := 0; off < len(data); off += mss {
		end := min(off+mss, len(data))
		in.CPU.Charge(in.net.Now(), in.cfg.CPUPerPacket)
		// G1′: after commit — storage-b's: the tunnel carries client bytes.
		pkt := in.packet(f.snat, f.server, netsim.FlagACK|netsim.FlagPSH, seq+uint32(off), f.s+1, advWindow)
		pkt.Payload = data[off:end:end]
		in.l4.SendViaSNAT(pkt, in.IP())
	}
}

// reject answers the client with a terminal HTTP error and tears the flow
// down. The error goes at the client's next expected sequence number:
// the application base in the connection phase, past every response
// already relayed on a keep-alive flow.
func (in *Instance) reject(f *flow, code int, reason string) {
	resp := httpsim.NewResponse(code, []byte(reason))
	resp.SetHeader("Connection", "close")
	payload := resp.Marshal()
	if f.tls != nil {
		payload = securesim.KeystreamXOR(f.tls.key, securesim.DirServerToClient,
			uint64(f.toClientNext-f.toClientDataBase()), payload)
	}
	// G1′: no state — the flow ends here.
	p := in.packet(f.vip, f.client, netsim.FlagACK|netsim.FlagPSH|netsim.FlagFIN, f.toClientNext, f.fromClient.next, 0)
	p.Payload = payload
	in.net.Send(p)
	in.teardown(f)
}

// --- tunneling phase ---

// relay forwards pkt through the tunnel to the flow's other side, with
// the given flags, window and payload: the one Δ translation of both
// directions. Toward the backend the ACK field drops by Δ; toward the
// client the sequence field rises by it, and the client-facing next
// sequence number follows.
func (in *Instance) relay(f *flow, pkt *netsim.Packet, flags netsim.TCPFlags, win uint32, payload []byte) {
	if pkt.Src == f.client {
		// G1′: after commit — storage-b's: a tunnel relays the endpoints'
		// own segments, which they retransmit to a successor.
		p := in.packet(f.snat, f.server, flags, pkt.Seq, pkt.Ack-f.delta, win)
		p.Payload = payload
		pkt.MovePayload(p)
		in.l4.SendViaSNAT(p, in.IP())
		return
	}
	if end := pkt.SeqEnd() + f.delta; seqDiff(end, f.toClientNext) > 0 {
		f.toClientNext = end
	}
	// G1′: after commit — as toward the backend.
	p := in.packet(f.vip, f.client, flags, pkt.Seq+f.delta, pkt.Ack, win)
	p.Payload = payload
	pkt.MovePayload(p)
	in.net.Send(p)
}

// abort propagates a RST to the flow's other end and drops state;
// dispatch routes a RST in Tunnel here, from either side.
func (in *Instance) abort(f *flow, pkt *netsim.Packet) {
	in.relay(f, pkt, netsim.FlagRST, 0, nil)
	in.teardown(f)
}

func (in *Instance) tunnelFromClient(f *flow, pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagFIN) {
		f.clientFin = true
		if f.halfClosedCopy() {
			in.net.Stop(f.idleTimer) // the idle check now waits finLinger (onIdle)
			f.idleTimer = in.net.Arm(finLinger, (*idleDue)(f))
		}
	}
	in.relay(f, pkt, pkt.Flags, pkt.Window, f.tlsDecryptFromClient(pkt.Seq, pkt.Payload))
	in.maybeFinish(f)
}

// tunnelFromServer forwards a backend segment to the client; on a
// keep-alive flow it first follows the response stream (keepalive.go).
func (in *Instance) tunnelFromServer(f *flow, pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagSYN) {
		// Retransmitted SYN-ACK: our ACK got lost. Re-ACK.
		// G1′: after commit — storage-b's, which the first ACK waited for.
		in.l4.SendViaSNAT(in.packet(f.snat, f.server, netsim.FlagACK, f.clientDataBase(), f.s+1, 0), in.IP())
		return
	}
	if pkt.Flags.Has(netsim.FlagFIN) {
		f.serverFin = true
	}
	if f.ka != nil && len(pkt.Payload) > 0 {
		in.kaTrackServer(f, pkt.Seq, pkt.Payload)
	}
	in.relay(f, pkt, pkt.Flags, pkt.Window, f.tlsEncryptToClient(pkt.Seq, pkt.Payload))
	in.maybeFinish(f)
}

// finLinger is how long a fully-closed flow's state lingers before
// cleanup (covers retransmitted FINs).
const finLinger = time.Second

// maybeFinish schedules state cleanup once both directions have closed.
// Every packet after the second FIN lands here (the close's last ACK
// always does); only the first starts the linger.
func (in *Instance) maybeFinish(f *flow) {
	if !f.clientFin || !f.serverFin || f.lingerTimer.Active() {
		return
	}
	f.lingerTimer = in.net.Arm(finLinger, (*flowDue)(f))
	if in.cfg.FlowIdleTimeout >= finLinger {
		in.net.Stop(f.idleTimer) // the linger tears the flow down first
	}
}

// teardown removes flow state locally, from TCPStore, and from the L4
// LB's affinity tables: every record the flow may have written is
// deleted, and both tuple orientations are released, so nothing the flow
// held outlives it. Then the flow object is retired for reuse.
func (in *Instance) teardown(f *flow) {
	in.note(evClose, f.clientTuple())
	in.unlink(f)
	bound := f.server.IP != 0
	// Hybrid flows that never persisted have nothing to delete.
	if f.persisted {
		in.store.Delete(in.flowEntries(f, nil, bound), nil)
		if f.oldServerIP != 0 {
			in.deleteKey(f.oldServerTuple()) // a switch's; storage-b's event may have deleted it
		}
	}
	in.l4.Release(f.clientTuple(), in.IP())
	if bound {
		in.releaseSNATPort(f.snat.Port)
		in.l4.Release(f.serverTuple(), in.IP())
	}
	in.closeOld(f)
	in.retire(f)
}

// newFlow returns a flow set to init on a retired object, keeping its
// generation, or on a new one. It runs where a packet or store reply
// finds no flow: no frame below still reads a retired one.
func (in *Instance) newFlow(init flow) *flow {
	f := in.spareFlows.Take()
	if f == nil {
		f = new(flow)
	}
	gen := f.gen
	*f = init
	f.in, f.gen = in, gen
	return f
}

// retire ends f's life: its generation, which a barrier in flight checks,
// moves on, and it waits for newFlow unchanged for the frames unwinding.
func (in *Instance) retire(f *flow) {
	if !f.retired {
		f.retired = true
		f.gen++
		in.spareFlows.Put(in.net, f)
	}
}

// unlink drops f from the flow index and stops its timers: the local half
// of teardown, and all of what ReleaseVIPFlows does to a migrating flow.
func (in *Instance) unlink(f *flow) {
	in.flows.del(f.clientTuple(), f)
	if f.server.IP != 0 {
		in.flows.del(f.serverTuple(), f)
	}
	if f.oldServerIP != 0 {
		in.flows.del(f.oldServerTuple(), f)
	}
	in.stopTimers(f)
}

// stopTimers stops f's timers, so the scheduler no longer holds it.
func (in *Instance) stopTimers(f *flow) {
	in.net.Stop(f.idleTimer)
	in.net.Stop(f.dialTimer)
	in.net.Stop(f.lingerTimer)
}

// armIdle starts the flow's idle timer: it comes round every
// FlowIdleTimeout and tears the flow down once it has sat idle that long.
func (in *Instance) armIdle(f *flow) {
	if in.cfg.FlowIdleTimeout > 0 {
		f.idleTimer = in.net.Arm(in.cfg.FlowIdleTimeout, (*idleDue)(f))
	}
}

// onIdle tears f down once it has sat idle FlowIdleTimeout, and a
// half-closed adopted copy once it has sat idle finLinger.
func (in *Instance) onIdle(f *flow) {
	if in.flows.get(f.clientTuple()) != f {
		return
	}
	wait, idle, half := in.cfg.FlowIdleTimeout, in.net.Now()-f.lastActive, f.halfClosedCopy()
	if half {
		wait = finLinger
	}
	if idle >= wait {
		in.teardown(f)
		return
	}
	if half {
		wait -= idle // finLinger after its last packet
	}
	f.idleTimer = in.net.Arm(wait, (*idleDue)(f))
}

// halfClosedCopy reports whether f is an adopted flow that has relayed
// the client's FIN and not seen the backend's. Its dead owner may have
// relayed that FIN already, and then no packet will show it: so the copy
// takes a backend silent for finLinger to have closed (G2's
// precondition), and any packet restarts the wait.
func (f *flow) halfClosedCopy() bool { return f.adopted && f.clientFin && !f.serverFin }

// TerminateBackendFlows aborts every flow pinned to a failed backend
// (§5.2: "when a server fails, its connections with YODA instances are
// terminated"): the client receives a RST so it can re-try immediately
// instead of stalling to its HTTP timeout. Returns the number of flows
// terminated.
func (in *Instance) TerminateBackendFlows(backend netsim.HostPort) int {
	var victims []*flow
	in.flows.forEach(func(f *flow) {
		if f.server == backend {
			victims = append(victims, f)
		}
	})
	for _, f := range victims {
		// G1′: no state — the flow ends here.
		in.net.Send(in.packet(f.vip, f.client, netsim.FlagRST, f.toClientNext, f.fromClient.next, 0))
		in.teardown(f)
	}
	return len(victims)
}

// --- failure recovery ---

// pendingQueue holds packets for one unknown tuple while TCPStore is
// consulted, or a parked knock (hybrid.go). Queues are bounded (per tuple
// and instance-wide) and carry an expiry timer: an attacker spraying
// orphan ACKs, or a wedged store lookup, must not grow memory unbounded.
// A resolved queue goes back to the instance's spares with its lookup
// callbacks bound (freeQueue), but not while its store read is in
// flight: the read's callback would find the queue's next tuple.
type pendingQueue struct {
	tuple netsim.FourTuple
	pkts  []*netsim.Packet // parked copies (netsim.PooledClone), owned by the queue
	// expire is the queue's expiry timer, and once the queue is resolved
	// into a claim (Instance.claims) the claim's.
	expire netsim.Timer
	// miss is what a store miss does with the queue (storeGet), lookup
	// that the read is in flight.
	miss   missAction
	lookup bool
	// claim is the queue's index in Instance.claims while it is a claim.
	claim int32
	// st and b are a client-side orphan's predicted server tuple and
	// backend, for missDerive (hybridClientGet).
	st netsim.FourTuple
	b  stateless.Backend
	// The owner, for the queue's timers: its expiry (the queue itself)
	// and the end of a bare ACK's claim on st (claimDue, hybridDerive).
	in *Instance
	// The callbacks, bound once per queue: the store read and a derived
	// flow's repair commit (hybridRepair).
	lookupFn func(value []byte, ok bool, err error)
	repairFn func(*flow)
}

// Fire expires the queue.
func (q *pendingQueue) Fire() { q.in.expireQueue(q) }

// claimDue is a pending queue as the owner of the timer that ends its
// claim on a predicted server tuple.
type claimDue pendingQueue

func (t *claimDue) Fire() { q := (*pendingQueue)(t); q.in.releaseClaim(q) }

// missAction is what a pending queue's store miss does (lookedUp).
type missAction uint8

const (
	missReset  missAction = iota // the paper's: count the miss and RST the sender
	missPark                     // a current-epoch knock parks quietly (hybridServerGet)
	missDerive                   // a dead head's unpersisted flow (hybridDerive)
)

// The pending-queue bounds. Overflow and expiry drops count as
// LookupMisses — the sender's retransmission retries.
const (
	maxPendingPerTuple = 16
	maxPendingTotal    = 1024
	pendingExpiry      = 2 * time.Second
)

// park queues pkts, parked copies, for tuple until a store lookup or a
// knock confirmation takes them, or pendingExpiry drops them as lookup
// misses, with the tuple's mux entry unless a local flow holds it.
func (in *Instance) park(tuple netsim.FourTuple, pkts ...*netsim.Packet) *pendingQueue {
	q := in.spareQueues.Take()
	if q == nil {
		q = &pendingQueue{in: in}
		q.lookupFn = func(value []byte, ok bool, err error) { in.lookedUp(q, value, ok, err) }
		q.repairFn = func(*flow) { in.replayRepaired(q) }
	}
	q.tuple = tuple
	q.pkts = append(q.pkts, pkts...)
	in.pending[tuple] = q
	in.pendingTotal += len(pkts)
	q.expire = in.net.Arm(pendingExpiry, q)
	return q
}

func (in *Instance) expireQueue(q *pendingQueue) {
	dropped, live := in.resolveQueue(q.tuple, q)
	if !live {
		return
	}
	for range dropped {
		in.note(evLookupMiss, q.tuple)
	}
	in.releaseOrphan(q.tuple)
	in.dropParked(dropped)
	in.freeQueue(q)
}

// freeQueue files a resolved queue, its packets already released or
// handed on, among the spares; one whose store read is still in flight
// is filed by the read's callback (lookedUp), and a dead instance files
// none: it will park nothing again.
func (in *Instance) freeQueue(q *pendingQueue) {
	clear(q.pkts)
	q.pkts = q.pkts[:0]
	if !q.lookup && !in.dead {
		in.spareQueues.Put(in.net, q)
	}
}

// dropParked releases parked copies, and each array a relay has not
// taken on (netsim.PooledClone).
func (in *Instance) dropParked(pkts []*netsim.Packet) {
	for _, p := range pkts {
		in.net.ReleasePacket(p)
	}
}

// recoverFlow handles a packet for which no local flow exists: another
// instance owned it. Packets queue while TCPStore is consulted.
func (in *Instance) recoverFlow(tuple netsim.FourTuple, pkt *netsim.Packet) {
	if q, ok := in.pending[tuple]; ok {
		if len(q.pkts) >= maxPendingPerTuple || in.pendingTotal >= maxPendingTotal {
			in.note(evLookupMiss, tuple) // dropped: the sender's retransmit retries
			return
		}
		q.pkts = append(q.pkts, in.net.PooledClone(pkt))
		in.pendingTotal++
		return
	}
	if in.pendingTotal >= maxPendingTotal {
		in.note(evLookupMiss, tuple)
		return
	}
	q := in.park(tuple, in.net.PooledClone(pkt))
	// Hybrid mode classifies the orphan (backend knock, dead-head
	// derivation, residue) before deciding whether and how to consult the
	// store; the paper-faithful mode always reads and RSTs a miss.
	if in.cfg.Hybrid != nil {
		in.hybridRecover(tuple, q)
		return
	}
	in.storeGet(tuple, q, missReset)
}

// installRecovered builds a local flow from a record read from TCPStore
// (ev is adoptFrom[rec.Phase]) or derived (evAdoptDerived, hybrid.go) —
// nothing else turns a record into a flow, so a derived flow has the
// shape a stored one would. A flow that already exists (live, or adopted from the
// same record by the other tuple orientation's pending queue) is returned
// as it is: only a flow created here is noted.
func (in *Instance) installRecovered(rec *Record, ev event) *flow {
	ct := netsim.FourTuple{Src: rec.Client, Dst: rec.VIP}
	if existing := in.flows.get(ct); existing != nil {
		return existing
	}
	f := in.newFlow(flow{
		vip:        rec.VIP,
		client:     rec.Client,
		clientISN:  rec.ClientISN,
		c:          isnHash(rec.Client, rec.VIP),
		fromClient: assembler{next: rec.ClientISN + 1},
		// A record read from the store is in the store: teardown owes its
		// deletes. A derived tunnel is persisted by its repair write.
		persisted:  ev != evAdoptDerived,
		lastActive: in.net.Now(),
		synAckSent: true,
		adopted:    true,
	})
	if rec.TLS != nil {
		f.tls = &flowTLS{key: rec.TLS.Key, serverHelloLen: int(rec.TLS.ServerHelloLen), committed: true}
		// The record carries the key, so the hello was consumed; the client
		// stream resumes at the application base.
		f.fromClient.next = f.clientDataBase()
	}
	if rec.header != "" {
		f.reqBuf = append(f.reqBuf, rec.header...)
		f.fromClient.next += uint32(len(rec.header))
	}
	switch rec.Phase { // UnmarshalRecord admits no other phase
	case PhaseConn:
		in.setState(f, stateConn)
		f.toClientNext = f.toClientDataBase()
	case PhaseTunnel:
		in.setState(f, stateTunnel)
		f.server = rec.Server
		f.snat = rec.SNAT
		f.s = rec.S
		f.delta = rec.Delta
		f.backendName = rec.BackendName
		// Keep-alive flows are downgraded to a pure tunnel after recovery:
		// the HTTP parser state died with the old instance, so the safe
		// continuation is to pin the current backend for the connection's
		// remainder (documented deviation; the paper stores request order
		// for pipelining, which this reproduction does not persist).
		f.keepAlive = false
		f.toClientNext = f.c + 1
		in.flows.put(f.serverTuple(), f)
	}
	in.flows.put(ct, f)
	// The first adopter claims both orientations, so both halves reach it.
	in.l4.Claim(ct, in.IP())
	if f.server.IP != 0 {
		in.l4.Claim(f.serverTuple(), in.IP())
	}
	in.armIdle(f)
	in.note(ev, ct)
	return f
}
