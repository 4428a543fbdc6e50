package core

import (
	"time"

	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/securesim"
)

// flow is the in-memory state for one balanced connection. Everything
// needed to take the flow over after a failure is mirrored in TCPStore;
// the rest (buffers, parsers, timers) is reconstructible.
type flow struct {
	vip    netsim.HostPort // VIP:port the client connected to
	client netsim.HostPort
	server netsim.HostPort
	snat   netsim.HostPort // VIP-side endpoint toward the backend

	clientISN uint32
	c         uint32 // our ISN facing the client
	s         uint32 // backend ISN
	delta     uint32 // seqToClient = seqFromServer + delta

	state       flowState // see state.go
	backendName string
	keepAlive   bool
	recovered   bool
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
	persisted bool

	// The client's byte stream: the connection phase assembles it into
	// reqBuf, keep-alive inspection into kaState.held.
	reqBuf     []byte
	fromClient assembler
	synAckSent bool

	// Tunneling bookkeeping.
	toClientNext uint32 // next client-facing seq the server side will use
	clientFin    bool
	serverFin    bool

	// Keep-alive (inspected tunnel) state; see keepalive.go.
	ka *kaState

	// TLS termination state; see tls.go.
	tls *flowTLS

	// Timers. idleFn is the idle timer's callback, built once by armIdle
	// and handed back to the scheduler on every re-arm; timerFn, built by
	// flowTimer, is that of the lookup delay, the dial retries and linger.
	idleTimer   netsim.Timer
	idleFn      func()
	timerFn     func()
	dialTimer   netsim.Timer
	lingerTimer netsim.Timer
	dialTries   int

	start      time.Duration // SYN arrival
	dialStart  time.Duration // backend selection began, for the Figure 9 breakdown
	lastActive time.Duration

	// Flow-index bookkeeping (see flowindex.go): idxSlot is the flow's
	// slot+1 in the index's store (0 = unindexed), idxRefs the number of
	// tuple orientations currently pointing at that slot.
	idxSlot uint32
	idxRefs uint8
}

func (f *flow) clientTuple() netsim.FourTuple {
	return netsim.FourTuple{Src: f.client, Dst: f.vip}
}

func (f *flow) serverTuple() netsim.FourTuple {
	return netsim.FourTuple{Src: f.server, Dst: f.snat}
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
	f := &flow{
		vip:          pkt.Dst,
		client:       pkt.Src,
		clientISN:    pkt.Seq,
		c:            isnHash(pkt.Src, pkt.Dst),
		fromClient:   assembler{next: pkt.Seq + 1},
		toClientNext: isnHash(pkt.Src, pkt.Dst) + 1,
		start:        now,
		lastActive:   now,
	}
	in.flows.put(f.clientTuple(), f)
	in.note(evNewFlow, f.vip.IP)
	in.armIdle(f)
	// storage-a: the SYN header goes to TCPStore before the SYN-ACK, so a
	// failed instance's successor can regenerate the handshake state.
	// Under StrictPersist an unrecoverable flow is dropped unanswered —
	// the client's SYN retransmission retries the whole sequence.
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
		in.note(evBarrierSkip, f.vip.IP)
		in.sendSynAck(f)
		return
	}
	in.writeBarrier(f, in.barrierEntries(f, PhaseConn, false), in.synAckFn, in.abandonFn)
}

func (in *Instance) sendSynAck(f *flow) {
	f.synAckSent = true
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
		in.teardown(f, false)
		return
	}
	if pkt.Flags.Has(netsim.FlagFIN) && len(pkt.Payload) == 0 {
		// Client gave up before sending a request.
		in.net.Send(in.packet(f.vip, f.client, netsim.FlagFIN|netsim.FlagACK, f.c+1, pkt.SeqEnd(), 0))
		in.teardown(f, true)
		return
	}
	if len(pkt.Payload) == 0 {
		return // bare ACK completing the handshake
	}
	prevLen := len(f.reqBuf)
	f.reqBuf = f.fromClient.appendTo(f.reqBuf, pkt.Seq, pkt.Payload)
	if f.state != stateConn {
		return // backend dial in progress; data is buffered for forwarding
	}
	// Even a retransmission of data already held (the instance died after
	// storage-a and we recovered) tries selection.
	if in.tlsAdvance(f, prevLen) {
		return // handshake in progress; HTTP cannot be parsed yet
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
		// Header incomplete: ACK what we have so the client can keep
		// sending beyond its initial window.
		in.net.Send(in.packet(f.vip, f.client, netsim.FlagACK, f.toClientDataBase(), f.fromClient.next, 0))
		return
	}
	in.selectAndDial(f, &in.req)
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
	lookup := in.cfg.LookupBase + time.Duration(decision.Scanned)*in.cfg.LookupPerRule
	// Only the scan itself burns CPU; LookupBase models pipeline latency
	// (queueing, context switches) that does not occupy a core.
	in.CPU.Charge(in.net.Now(), time.Duration(decision.Scanned)*in.cfg.LookupPerRule)
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
		in.note(evSNATExhausted, f.vip.IP)
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
	in.flowTimer(f, lookup) // the lookup delay: sendServerSyn when it is over
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
	in.l4.SendViaSNAT(in.packet(f.snat, f.server, netsim.FlagSYN, f.dialBase()-1, 0, advWindow), in.IP())
	f.dialTries++
	f.dialTimer.Stop()
	f.dialTimer = in.flowTimer(f, 3*time.Second)
}

// flowTimer arms the lookup delay, a dial retry or the linger on the
// flow's one callback for them all, which it binds on first use.
func (in *Instance) flowTimer(f *flow, d time.Duration) netsim.Timer {
	if f.timerFn == nil {
		f.timerFn = func() { in.onFlowTimer(f) }
	}
	return in.net.Schedule(d, f.timerFn)
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
		in.teardown(f, true)
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
	f.dialTimer.Stop()
	f.dialTries = 0
	f.s = pkt.Seq
	// Translation: the backend's first data byte (S+1) must surface at the
	// client's next expected sequence number: after the SYN-ACK and, for
	// TLS, the ServerHello on a first dial; on a re-dial, after the bytes
	// the old backend already sent.
	if f.ka == nil {
		f.toClientNext = f.toClientDataBase()
	}
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
		in.note(evBarrierSkip, f.vip.IP)
		in.enterTunnel(f)
		return
	}
	in.writeBarrier(f, in.barrierEntries(f, PhaseTunnel, true), in.tunnelFn, in.unpersistedFn)
}

// enterTunnel is storage-b's commit: ACK the SYN-ACK, forward the request.
func (in *Instance) enterTunnel(f *flow) {
	if f.state != stateDialing {
		return
	}
	base, data := f.dialBase(), f.reqBuf
	if ka := f.ka; ka != nil {
		// A re-dial: forward the request that chose this backend, and
		// follow the new backend's responses from its first byte.
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
		pkt := in.packet(f.snat, f.server, netsim.FlagACK|netsim.FlagPSH, seq+uint32(off), f.s+1, advWindow)
		pkt.Payload = data[off:end:end]
		in.l4.SendViaSNAT(pkt, in.IP())
	}
}

// reject answers the client with a terminal HTTP error and tears the flow
// down.
func (in *Instance) reject(f *flow, code int, reason string) {
	resp := httpsim.NewResponse(code, []byte(reason))
	resp.SetHeader("Connection", "close")
	payload := resp.Marshal()
	if f.tls != nil {
		payload = securesim.KeystreamXOR(f.tls.key, securesim.DirServerToClient, 0, payload)
	}
	p := in.packet(f.vip, f.client, netsim.FlagACK|netsim.FlagPSH|netsim.FlagFIN, f.toClientDataBase(), f.fromClient.next, 0)
	p.Payload = payload
	in.net.Send(p)
	in.teardown(f, true)
}

// --- tunneling phase ---

// relay forwards pkt through the tunnel to the flow's other side, with
// the given flags, window and payload: the one Δ translation of both
// directions. Toward the backend the ACK field drops by Δ; toward the
// client the sequence field rises by it, and the client-facing next
// sequence number follows.
func (in *Instance) relay(f *flow, pkt *netsim.Packet, flags netsim.TCPFlags, win uint32, payload []byte) {
	if pkt.Src == f.client {
		p := in.packet(f.snat, f.server, flags, pkt.Seq, pkt.Ack-f.delta, win)
		p.Payload = payload
		in.l4.SendViaSNAT(p, in.IP())
		return
	}
	if end := pkt.SeqEnd() + f.delta; seqDiff(end, f.toClientNext) > 0 {
		f.toClientNext = end
	}
	p := in.packet(f.vip, f.client, flags, pkt.Seq+f.delta, pkt.Ack, win)
	p.Payload = payload
	in.net.Send(p)
}

// abort propagates a RST to the flow's other end and drops state;
// dispatch routes a RST in Tunnel here, from either side.
func (in *Instance) abort(f *flow, pkt *netsim.Packet) {
	in.relay(f, pkt, netsim.FlagRST, 0, nil)
	in.teardown(f, true)
}

func (in *Instance) tunnelFromClient(f *flow, pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagFIN) {
		f.clientFin = true
	}
	in.relay(f, pkt, pkt.Flags, pkt.Window, f.tlsDecryptFromClient(pkt.Seq, pkt.Payload))
	in.maybeFinish(f)
}

// tunnelFromServer forwards a backend segment to the client; on a
// keep-alive flow it first follows the response stream (keepalive.go).
func (in *Instance) tunnelFromServer(f *flow, pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagSYN) {
		// Retransmitted SYN-ACK: our ACK got lost. Re-ACK.
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
	f.lingerTimer = in.flowTimer(f, finLinger)
}

// teardown removes flow state locally, from TCPStore, and from the L4
// LB's SNAT table.
func (in *Instance) teardown(f *flow, deleteStore bool) {
	in.note(evClose, f.vip.IP)
	in.unlink(f)
	if f.server.IP != 0 {
		in.releaseSNATPort(f.snat.Port)
	}
	if deleteStore {
		// Hybrid flows that never persisted have nothing to delete; the
		// SNAT routing entry is cleared either way.
		if f.persisted {
			in.store.Delete(in.flowEntries(f, nil, f.server.IP != 0), nil)
		}
		if f.server.IP != 0 {
			in.l4.ClearSNAT(f.serverTuple())
		}
	}
}

// unlink drops f from the flow index and stops its timers: the local half
// of teardown, and all of what ReleaseVIPFlows does to a migrating flow.
func (in *Instance) unlink(f *flow) {
	in.flows.del(f.clientTuple(), f)
	if f.server.IP != 0 {
		in.flows.del(f.serverTuple(), f)
	}
	f.idleTimer.Stop()
	f.dialTimer.Stop()
	f.lingerTimer.Stop()
}

// armIdle starts the flow's idle timer: it comes round every
// FlowIdleTimeout and tears the flow down once it has sat idle that long.
func (in *Instance) armIdle(f *flow) {
	if in.cfg.FlowIdleTimeout <= 0 {
		return
	}
	f.idleFn = func() {
		if in.flows.get(f.clientTuple()) != f {
			return
		}
		if in.net.Now()-f.lastActive >= in.cfg.FlowIdleTimeout {
			in.teardown(f, true)
			return
		}
		f.idleTimer = in.net.Schedule(in.cfg.FlowIdleTimeout, f.idleFn)
	}
	f.idleTimer = in.net.Schedule(in.cfg.FlowIdleTimeout, f.idleFn)
}

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
		in.net.Send(in.packet(f.vip, f.client, netsim.FlagRST, f.toClientNext, f.fromClient.next, 0))
		in.teardown(f, true)
	}
	return len(victims)
}

// --- failure recovery ---

// pendingQueue holds packets for one unknown tuple while TCPStore is
// consulted. Queues are bounded (per tuple and instance-wide) and carry
// an expiry timer: an attacker spraying orphan ACKs, or a wedged store
// lookup, must not grow instance memory without limit.
type pendingQueue struct {
	pkts   []*netsim.Packet
	expire netsim.Timer
}

// The pending-queue bounds. Overflow and expiry drops count as
// LookupMisses — the sender's retransmission retries.
const (
	maxPendingPerTuple = 16
	maxPendingTotal    = 1024
	pendingExpiry      = 2 * time.Second
)

// dropPending discards a recovery queue, accounting every queued packet
// as a lookup miss.
func (in *Instance) dropPending(tuple netsim.FourTuple, q *pendingQueue) {
	delete(in.pending, tuple)
	in.pendingTotal -= len(q.pkts)
	q.expire.Stop()
	for range q.pkts {
		in.note(evLookupMiss, tuple.Dst.IP)
	}
}

// recoverFlow handles a packet for which no local flow exists: another
// instance owned it. Packets queue while TCPStore is consulted.
func (in *Instance) recoverFlow(tuple netsim.FourTuple, pkt *netsim.Packet) {
	if q, ok := in.pending[tuple]; ok {
		if len(q.pkts) >= maxPendingPerTuple || in.pendingTotal >= maxPendingTotal {
			in.note(evLookupMiss, tuple.Dst.IP) // dropped: the sender's retransmit retries
			return
		}
		q.pkts = append(q.pkts, pkt.Clone())
		in.pendingTotal++
		return
	}
	if in.pendingTotal >= maxPendingTotal {
		in.note(evLookupMiss, tuple.Dst.IP)
		return
	}
	q := &pendingQueue{pkts: []*netsim.Packet{pkt.Clone()}}
	in.pending[tuple] = q
	in.pendingTotal++
	q.expire = in.net.Schedule(pendingExpiry, func() {
		if in.pending[tuple] == q {
			in.dropPending(tuple, q)
		}
	})
	// Hybrid mode classifies the orphan (backend knock, dead-head
	// derivation, residue) before deciding whether and how to consult the
	// store; the paper-faithful mode always reads and RSTs a miss.
	if in.cfg.Hybrid != nil {
		in.hybridRecover(tuple, q)
		return
	}
	in.storeGet(tuple, q, nil)
}

// installRecovered builds a local flow from a record read from TCPStore
// (ev is evAdoptStore) or derived (evAdoptDerived, hybrid.go) — nothing
// else turns a record into a flow, so a derived flow has the shape a
// stored one would. A flow that already exists (live, or adopted from the
// same record by the other tuple orientation's pending queue) is returned
// as it is: only a flow created here is noted.
func (in *Instance) installRecovered(rec *Record, ev event) *flow {
	ct := netsim.FourTuple{Src: rec.Client, Dst: rec.VIP}
	if existing := in.flows.get(ct); existing != nil {
		return existing
	}
	f := &flow{
		vip:        rec.VIP,
		client:     rec.Client,
		clientISN:  rec.ClientISN,
		c:          isnHash(rec.Client, rec.VIP),
		fromClient: assembler{next: rec.ClientISN + 1},
		recovered:  true,
		// A record read from the store is in the store: teardown owes its
		// deletes. A derived tunnel is persisted by its repair write.
		persisted:  ev == evAdoptStore,
		start:      in.net.Now(),
		lastActive: in.net.Now(),
		synAckSent: true,
	}
	if rec.TLS != nil {
		f.tls = &flowTLS{key: rec.TLS.Key, serverHelloLen: int(rec.TLS.ServerHelloLen)}
		// The hello was consumed (and ACKed) before the record carried a
		// key; the client stream resumes at the application base.
		f.fromClient.next = f.clientDataBase()
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
	in.armIdle(f)
	in.note(ev, rec.VIP.IP)
	return f
}
