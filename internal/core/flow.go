package core

import (
	"time"

	"repro/internal/httpsim"
	"repro/internal/netsim"
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
	// persisted tracks whether any record for this flow was (or may have
	// been) written to TCPStore. Always true on the paper-faithful path;
	// hybrid flows that skip their barriers stay false, which gates the
	// teardown deletes (nothing to delete) and marks them for the
	// epoch-bump flush (see hybrid.go).
	persisted bool

	// Connection-phase request assembly.
	reqBuf        []byte
	clientNextSeq uint32            // next expected in-order client payload seq
	ooo           map[uint32][]byte // out-of-order client payload
	synAckSent    bool

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
		vip:           pkt.Dst,
		client:        pkt.Src,
		clientISN:     pkt.Seq,
		c:             isnHash(pkt.Src, pkt.Dst),
		clientNextSeq: pkt.Seq + 1,
		toClientNext:  isnHash(pkt.Src, pkt.Dst) + 1,
		state:         stateConn,
		start:         now,
		lastActive:    now,
	}
	in.flows.put(f.clientTuple(), f)
	in.statsFor(pkt.Dst.IP).NewFlows++
	in.armIdle(f)
	// storage-a: the SYN header goes to TCPStore before the SYN-ACK, so a
	// failed instance's successor can regenerate the handshake state.
	// Under StrictPersist an unrecoverable flow is dropped unanswered —
	// the client's SYN retransmission retries the whole sequence.
	//
	// Hybrid mode skips storage-a entirely: everything a PhaseConn record
	// carries is derivable (C is the tuple hash any instance computes,
	// ClientISN is one less than the first retransmitted payload byte), so
	// the SYN-ACK goes out synchronously. TLS flows get their key
	// persisted later, at the tlsAdvance barrier, before it is needed.
	if in.cfg.Hybrid != nil {
		in.Barrier.Skipped++
		in.sendSynAck(f)
		return
	}
	in.writeBarrier(f, in.barrierEntries(f, PhaseConn, false), in.synAckFn, in.abandonFn)
}

func (in *Instance) sendSynAck(f *flow) {
	f.synAckSent = true
	in.net.Send(in.packet(f.vip, f.client, netsim.FlagSYN|netsim.FlagACK, f.c, f.clientISN+1))
}

// packet takes a pooled packet for a segment the instance originates,
// advertising the window it always advertises.
func (in *Instance) packet(src, dst netsim.HostPort, flags netsim.TCPFlags, seq, ack uint32) *netsim.Packet {
	p := in.net.AllocPacket()
	p.Src, p.Dst, p.Flags, p.Seq, p.Ack, p.Window = src, dst, flags, seq, ack, 1<<20
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
		in.net.Send(&netsim.Packet{
			Src: f.vip, Dst: f.client,
			Flags: netsim.FlagFIN | netsim.FlagACK,
			Seq:   f.c + 1, Ack: pkt.SeqEnd(),
		})
		in.teardown(f, true)
		return
	}
	if len(pkt.Payload) == 0 {
		return // bare ACK completing the handshake
	}
	prevLen := len(f.reqBuf)
	grew := in.assembleClientData(f, pkt)
	if !grew {
		// Retransmission of data we already hold (e.g. the instance died
		// after storage-a and we recovered): if the backend dial is already
		// running, just wait; otherwise fall through to try selection.
		if f.state != stateConn {
			return
		}
	}
	if f.state != stateConn {
		return // backend dial in progress; data is buffered for forwarding
	}
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
		in.net.Send(&netsim.Packet{
			Src: f.vip, Dst: f.client,
			Flags: netsim.FlagACK,
			Seq:   f.toClientDataBase(), Ack: f.clientNextSeq,
		})
		return
	}
	in.selectAndDial(f, &in.req)
}

// assembleClientData merges a data segment into the in-order request
// buffer, returning whether new bytes were added.
func (in *Instance) assembleClientData(f *flow, pkt *netsim.Packet) bool {
	seq, data := pkt.Seq, pkt.Payload
	// Trim already-held prefix.
	if seqDiff(f.clientNextSeq, seq) > 0 {
		skip := f.clientNextSeq - seq
		if uint32(len(data)) <= skip {
			return false
		}
		data = data[skip:]
		seq = f.clientNextSeq
	}
	if seq != f.clientNextSeq {
		park(&f.ooo, seq, data)
		return false
	}
	f.reqBuf = append(f.reqBuf, data...)
	f.clientNextSeq += uint32(len(data))
	// Drain contiguous out-of-order segments.
	for {
		d, ok := f.ooo[f.clientNextSeq]
		if !ok {
			break
		}
		delete(f.ooo, f.clientNextSeq)
		f.reqBuf = append(f.reqBuf, d...)
		f.clientNextSeq += uint32(len(d))
	}
	return true
}

// park copies an out-of-order segment into *m, made at the first one.
func park(m *map[uint32][]byte, seq uint32, data []byte) {
	if *m == nil {
		*m = make(map[uint32][]byte)
	}
	(*m)[seq] = append([]byte(nil), data...)
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
	// The split draw: hybrid mode replaces the RNG with a tuple-keyed
	// uniform value so the decision is reproducible by any instance
	// holding the table (the write-time self-check and recovery replay
	// it); the paper-faithful mode keeps the network's RNG draw.
	var draw float64
	if in.cfg.Hybrid != nil {
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
	// would splice two live flows onto one backend tuple. Hybrid mode
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
		in.statsFor(f.vip.IP).SNATExhausted++
		in.reject(f, 503, "snat ports exhausted")
		return
	}
	in.setState(f, stateDialing)
	f.dialStart = in.net.Now()
	f.server = decision.Backend.Addr
	f.backendName = decision.Backend.Name
	// TLS flows stay pinned to their backend: re-selection would require
	// re-inspecting ciphertext mid-stream (documented simplification).
	f.keepAlive = req.KeepAlive() && f.tls == nil
	f.snat = netsim.HostPort{IP: f.vip.IP, Port: port}
	in.flows.put(f.serverTuple(), f)
	// Learn sticky bindings so subsequent sessions pin (Table 3 rule-4).
	if ck := sessionCookie(req); ck != "" {
		engine.Learn("cookie-table", ck, decision.Backend)
	}
	in.flowTimer(f, lookup) // the lookup delay: sendServerSyn when it is over
}

// sessionCookie extracts the canonical session cookie if present.
func sessionCookie(req *httpsim.Request) string { return req.Cookie("session") }

func (in *Instance) sendServerSyn(f *flow) {
	// The SYN to the backend reuses the client's sequence numbering so
	// that client data can later be forwarded without rewriting (§4.1).
	// For TLS flows the handshake bytes were consumed by the instance and
	// are not forwarded, so the backend's numbering starts where the
	// client's application data starts.
	in.l4.SendViaSNAT(in.packet(f.snat, f.server, netsim.FlagSYN, f.clientDataBase()-1, 0), in.IP())
	f.dialTries++
	f.dialTimer.Stop()
	f.dialTimer = in.flowTimer(f, 3*time.Second)
}

// flowTimer arms the lookup delay, a dial retry or the linger on the
// flow's one callback for the three, which it binds on first use.
func (in *Instance) flowTimer(f *flow, d time.Duration) netsim.Timer {
	if f.timerFn == nil {
		f.timerFn = func() { in.onFlowTimer(f) }
	}
	return in.net.Schedule(d, f.timerFn)
}

// onFlowTimer tells the three apart by the flow's state: while it dials,
// the lookup delay (dialTries 0) or a dial retry sends the next SYN; the
// dial timer stops at the SYN-ACK, so any later one is the linger.
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
// ACK plus the buffered request.
func (in *Instance) serverHandshakePacket(f *flow, pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagRST) {
		in.reject(f, 503, "backend refused")
		return
	}
	if !pkt.Flags.Has(netsim.FlagSYN | netsim.FlagACK) {
		return
	}
	if pkt.Ack != f.clientDataBase() {
		return // stale handshake
	}
	f.dialTimer.Stop()
	f.s = pkt.Seq
	// Translation: the backend's first data byte (S+1) must surface at the
	// client's next expected sequence number (after the SYN-ACK and, for
	// TLS, the ServerHello).
	f.delta = f.toClientDataBase() - (f.s + 1)
	f.toClientNext = f.toClientDataBase()
	// storage-b: persist the full translation state under both tuple
	// orientations before ACKing the server (Figure 3). The two records
	// ride one batched store round trip.
	//
	// Hybrid mode first dry-runs the stateless derivation against the
	// state actually installed (hybrid.go): when every field matches, the
	// write is redundant — a successor derives the identical record — and
	// the barrier is skipped with the commit run synchronously. Any
	// mismatch (sticky hit, health drift, port-collision fallback, stale
	// mux routing, TLS) keeps the flow on the persisted path, so residue
	// classification is sound without enumerating causes.
	if in.hybridDerivable(f) {
		in.Barrier.Skipped++
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
	// The "connection" component of Figure 9: backend selection through
	// the backend handshake and storage-b (waiting for the client's
	// request is not the LB's doing and is excluded).
	in.ConnLat.Add(in.net.Now() - f.dialStart)
	toForward := f.reqBuf
	if f.keepAlive {
		// Only the first request goes to this backend; pipelined
		// requests already buffered are re-selected individually.
		toForward = in.initKeepAlive(f)
		in.setState(f, stateKATunnel)
	} else {
		in.setState(f, stateTunnel)
	}
	// ACK the SYN-ACK and forward the buffered request bytes in the
	// client's own sequence space.
	in.l4.SendViaSNAT(in.packet(f.snat, f.server, netsim.FlagACK, f.clientDataBase(), f.s+1), in.IP())
	in.forwardClientBytes(f, f.clientDataBase(), toForward)
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
		pkt := in.packet(f.snat, f.server, netsim.FlagACK|netsim.FlagPSH, seq+uint32(off), f.s+1)
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
	seq := f.toClientDataBase()
	if f.tls != nil {
		payload = securesim.KeystreamXOR(f.tls.key, securesim.DirServerToClient, 0, payload)
	}
	in.net.Send(&netsim.Packet{
		Src: f.vip, Dst: f.client,
		Flags:   netsim.FlagACK | netsim.FlagPSH | netsim.FlagFIN,
		Seq:     seq,
		Ack:     f.clientNextSeq,
		Payload: payload,
	})
	in.teardown(f, true)
}

// --- tunneling phase ---

// abortToServer propagates a client RST to the backend and drops state.
// Both tunnel states route client RSTs here.
func (in *Instance) abortToServer(f *flow, pkt *netsim.Packet) {
	in.l4.SendViaSNAT(&netsim.Packet{
		Src: f.snat, Dst: f.server,
		Flags: netsim.FlagRST, Seq: pkt.Seq, Ack: pkt.Ack - f.delta,
	}, in.IP())
	in.teardown(f, true)
}

func (in *Instance) tunnelFromClient(f *flow, pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagRST) {
		in.abortToServer(f, pkt)
		return
	}
	if pkt.Flags.Has(netsim.FlagFIN) {
		f.clientFin = true
	}
	fwd := in.net.AllocPacket()
	fwd.Src, fwd.Dst = f.snat, f.server
	fwd.Flags = pkt.Flags
	fwd.Seq, fwd.Ack = pkt.Seq, pkt.Ack-f.delta
	fwd.Window = pkt.Window
	fwd.Payload = f.tlsDecryptFromClient(pkt.Seq, pkt.Payload)
	in.l4.SendViaSNAT(fwd, in.IP())
	in.maybeFinish(f)
}

func (in *Instance) tunnelFromServer(f *flow, pkt *netsim.Packet) {
	if pkt.Flags.Has(netsim.FlagRST) {
		in.net.Send(&netsim.Packet{
			Src: f.vip, Dst: f.client,
			Flags: netsim.FlagRST, Seq: pkt.Seq + f.delta, Ack: pkt.Ack,
		})
		in.teardown(f, true)
		return
	}
	if pkt.Flags.Has(netsim.FlagSYN) {
		// Retransmitted SYN-ACK: our ACK got lost. Re-ACK.
		in.l4.SendViaSNAT(&netsim.Packet{
			Src: f.snat, Dst: f.server,
			Flags: netsim.FlagACK,
			Seq:   f.clientDataBase(), Ack: f.s + 1,
		}, in.IP())
		return
	}
	if pkt.Flags.Has(netsim.FlagFIN) {
		f.serverFin = true
	}
	end := pkt.SeqEnd() + f.delta
	if seqDiff(end, f.toClientNext) > 0 {
		f.toClientNext = end
	}
	fwd := in.net.AllocPacket()
	fwd.Src, fwd.Dst = f.vip, f.client
	fwd.Flags = pkt.Flags
	fwd.Seq, fwd.Ack = pkt.Seq+f.delta, pkt.Ack
	fwd.Window = pkt.Window
	fwd.Payload = f.tlsEncryptToClient(pkt.Seq, pkt.Payload)
	in.net.Send(fwd)
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
	in.FlowsClosed++
	in.flows.del(f.clientTuple(), f)
	if f.server.IP != 0 {
		in.flows.del(f.serverTuple(), f)
	}
	f.idleTimer.Stop()
	f.dialTimer.Stop()
	f.lingerTimer.Stop()
	if f.server.IP != 0 {
		in.releaseSNATPort(f.snat.Port)
	}
	if deleteStore {
		// Hybrid flows that never persisted have nothing to delete; the
		// SNAT routing entry is cleared either way.
		if f.persisted {
			in.store.Delete(in.flowKey(f.clientTuple()), nil)
			if f.server.IP != 0 {
				in.store.Delete(in.flowKey(f.serverTuple()), nil)
			}
		}
		if f.server.IP != 0 {
			in.l4.ClearSNAT(f.serverTuple())
		}
	}
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
		in.net.Send(&netsim.Packet{
			Src: f.vip, Dst: f.client,
			Flags: netsim.FlagRST,
			Seq:   f.toClientNext, Ack: f.clientNextSeq,
		})
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
	in.LookupMisses += uint64(len(q.pkts))
}

// recoverFlow handles a packet for which no local flow exists: another
// instance owned it. Packets queue while TCPStore is consulted.
func (in *Instance) recoverFlow(tuple netsim.FourTuple, pkt *netsim.Packet) {
	if q, ok := in.pending[tuple]; ok {
		if len(q.pkts) >= maxPendingPerTuple || in.pendingTotal >= maxPendingTotal {
			in.LookupMisses++ // dropped: the sender's retransmit retries
			return
		}
		q.pkts = append(q.pkts, pkt.Clone())
		in.pendingTotal++
		return
	}
	if in.pendingTotal >= maxPendingTotal {
		in.LookupMisses++
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
	// Hybrid mode classifies the orphan (backend knock, dead-owner
	// derivation, residue) before deciding whether and how to consult the
	// store; the paper-faithful mode always reads and RSTs a miss.
	if in.cfg.Hybrid != nil {
		in.hybridRecover(tuple, q)
		return
	}
	in.storeGet(tuple, q, nil)
}

// installRecovered builds a local flow from a record — one read from
// TCPStore or one the hybrid derivation produced (hybrid.go); nothing
// else turns a record into a flow, so a derived flow cannot differ in
// shape from what the store would have returned.
func (in *Instance) installRecovered(rec *Record) *flow {
	ct := netsim.FourTuple{Src: rec.Client, Dst: rec.VIP}
	if existing := in.flows.get(ct); existing != nil {
		return existing // raced with another recovery or a live flow
	}
	f := &flow{
		vip:           rec.VIP,
		client:        rec.Client,
		clientISN:     rec.ClientISN,
		c:             isnHash(rec.Client, rec.VIP),
		clientNextSeq: rec.ClientISN + 1,
		recovered:     true,
		start:         in.net.Now(),
		lastActive:    in.net.Now(),
		synAckSent:    true,
	}
	if rec.TLS != nil {
		f.tls = &flowTLS{key: rec.TLS.Key, serverHelloLen: int(rec.TLS.ServerHelloLen)}
		// The hello was consumed (and ACKed) before the record carried a
		// key; the client stream resumes at the application base.
		f.clientNextSeq = f.clientDataBase()
	}
	switch rec.Phase {
	case PhaseConn:
		f.state = stateConn
		f.toClientNext = f.toClientDataBase()
	case PhaseTunnel:
		f.state = stateTunnel
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
	default:
		return nil
	}
	in.flows.put(ct, f)
	in.armIdle(f)
	return f
}
