package core

import (
	"time"

	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/tcpstore"
)

// Keep-alive (HTTP/1.1) support, §5.2 of the paper: a single client
// connection can carry multiple requests that may match different rules
// and therefore different backends. The instance keeps inspecting client
// payloads in the tunneling phase; when a request selects a new backend
// it closes the old server connection, dials the new one reusing the
// client's current sequence position, rebases the translation delta, and
// updates the mapping in TCPStore.
//
// To keep responses in order (the paper's pipelining requirement),
// requests are framed and forwarded one at a time: request N+1 is held
// until response N has been observed complete on the return path.

// kaRequest is one framed, not-yet-forwarded client request.
type kaRequest struct {
	raw      []byte
	startSeq uint32
	req      httpsim.Request
}

// kaState is the inspected-tunnel bookkeeping attached to keep-alive
// flows.
type kaState struct {
	held    []byte // in-order client bytes not yet framed into a request
	heldSeq uint32 // client sequence number of held[0]
	queue   []kaRequest
	// streamBytes counts bytes of the in-flight request's body that have
	// not arrived yet and should be forwarded straight through (the
	// request was selected off its header; its tail needs no holding).
	streamBytes int

	respOutstanding int // responses owed before the next request may go

	// Response framing over the raw (untranslated) server byte stream:
	// respBuf holds only a header block that is still incomplete, respBody
	// counts the body bytes of the current response still to pass. Bodies
	// are never buffered.
	respBuf       []byte
	respBody      int
	serverNextSeq uint32
	serverOOO     map[uint32][]byte

	// Backend switching. committing marks the window where the new
	// backend's SYN-ACK arrived and the rewritten flow record is inside
	// the write barrier: retransmitted SYN-ACKs must not re-enter the
	// commit.
	switching  bool
	committing bool
	pendReq    *kaRequest

	// A client FIN that must be forwarded once all held data flushes.
	finPending bool
	finSeq     uint32
	finAck     uint32
}

// initKeepAlive is called when a keep-alive flow enters the tunnel phase.
// It returns the bytes the connection phase should forward to the first
// backend: only the first request — any pipelined requests already
// buffered must be held and individually re-selected, otherwise they
// would all land on the first request's backend (§5.2).
func (in *Instance) initKeepAlive(f *flow) []byte {
	ka := &kaState{
		serverNextSeq:   f.s + 1,
		respOutstanding: 1,
	}
	f.ka = ka
	// The first request's header is complete: selection ran on it.
	h, b, err := httpsim.Frame(f.reqBuf)
	if rest := len(f.reqBuf) - h; err != nil || rest < b {
		// Its body is still arriving: stream the rest through as it lands.
		ka.heldSeq = f.clientISN + 1 + uint32(len(f.reqBuf))
		ka.streamBytes = b - rest
		return f.reqBuf
	}
	total := h + b
	ka.held = append([]byte(nil), f.reqBuf[total:]...)
	ka.heldSeq = f.clientISN + 1 + uint32(total)
	ka.frame()
	return f.reqBuf[:total:total]
}

// frame moves the complete requests at the front of the held bytes onto
// the queue. The frames are sub-slices of the old held buffer, which is
// given up to them; the rest is kept as a copy.
func (ka *kaState) frame() {
	rest := ka.held
	for {
		h, b, err := httpsim.Frame(rest)
		if err != nil || h == 0 || len(rest)-h < b {
			break
		}
		var req httpsim.Request
		if _, err := httpsim.ParseRequestHeader(&req, rest[:h]); err != nil {
			break
		}
		n := h + b
		ka.queue = append(ka.queue, kaRequest{raw: rest[:n:n], startSeq: ka.heldSeq, req: req})
		ka.heldSeq += uint32(n)
		rest = rest[n:]
	}
	if len(rest) < len(ka.held) {
		ka.held = append([]byte(nil), rest...)
	}
}

// kaFromClient processes a client packet on an inspected keep-alive flow.
func (in *Instance) kaFromClient(f *flow, pkt *netsim.Packet) {
	ka := f.ka
	if len(pkt.Payload) > 0 {
		in.kaAssembleClient(f, pkt.Seq, pkt.Payload)
		in.kaFrameAndFlush(f)
	} else if !pkt.Flags.Has(netsim.FlagFIN) && !ka.switching {
		// Bare ACK: translate and pass through so the server's
		// retransmission timers stay quiet. While a backend switch is in
		// flight there is no established server connection to ACK — the
		// segment would only draw a RST from the new backend's listener —
		// so those are dropped (they carry no information the new backend
		// needs).
		in.l4.SendViaSNAT(&netsim.Packet{
			Src: f.snat, Dst: f.server,
			Flags: pkt.Flags, Seq: pkt.Seq, Ack: pkt.Ack - f.delta, Window: pkt.Window,
		}, in.IP())
	}
	if pkt.Flags.Has(netsim.FlagFIN) {
		ka.finPending = true
		ka.finSeq = pkt.SeqEnd() - 1 // sequence the FIN occupies
		ka.finAck = pkt.Ack
		in.kaMaybeForwardFin(f)
	}
}

// kaAssembleClient merges client payload into the held buffer in order.
func (in *Instance) kaAssembleClient(f *flow, seq uint32, data []byte) {
	expected := f.ka.heldSeq + uint32(len(f.ka.held))
	if seqDiff(expected, seq) > 0 {
		skip := expected - seq
		if uint32(len(data)) <= skip {
			return // duplicate
		}
		data = data[skip:]
		seq = expected
	}
	if seq != expected {
		park(&f.ooo, seq, data)
		return
	}
	f.ka.held = append(f.ka.held, data...)
	for {
		next := f.ka.heldSeq + uint32(len(f.ka.held))
		d, ok := f.ooo[next]
		if !ok {
			break
		}
		delete(f.ooo, next)
		f.ka.held = append(f.ka.held, d...)
	}
	f.clientNextSeq = f.ka.heldSeq + uint32(len(f.ka.held))
}

// kaFrameAndFlush frames held bytes into requests and forwards as many as
// ordering allows.
func (in *Instance) kaFrameAndFlush(f *flow) {
	ka := f.ka
	// Pass through the tail of an in-flight streamed request first.
	if ka.streamBytes > 0 && len(ka.held) > 0 {
		n := ka.streamBytes
		if n > len(ka.held) {
			n = len(ka.held)
		}
		in.forwardClientBytes(f, ka.heldSeq, ka.held[:n])
		ka.held = append([]byte(nil), ka.held[n:]...)
		ka.heldSeq += uint32(n)
		ka.streamBytes -= n
	}
	ka.frame()
	in.kaFlush(f)
}

// kaFlush forwards the next queued request if no response is outstanding.
func (in *Instance) kaFlush(f *flow) {
	ka := f.ka
	if ka.switching || ka.respOutstanding > 0 || len(ka.queue) == 0 {
		in.kaMaybeForwardFin(f)
		return
	}
	next := ka.queue[0]
	ka.queue[0] = kaRequest{} // an idle flow keeps none of its last request
	ka.queue = ka.queue[1:]
	engine, ok := in.engines[f.vip.IP]
	if !ok {
		in.reject(f, 503, "vip not assigned to this instance")
		return
	}
	decision := engine.Select(&next.req, in.rng.Float64(), in.info)
	in.CPU.Charge(in.net.Now(), time.Duration(decision.Scanned)*in.cfg.LookupPerRule)
	if !decision.OK {
		in.reject(f, 503, "no rule matched")
		return
	}
	if decision.Backend.Name == f.backendName {
		ka.respOutstanding++
		in.forwardClientBytes(f, next.startSeq, next.raw)
		in.kaFlush(f)
		return
	}
	in.kaSwitchBackend(f, next, decision.Backend)
}

// kaSwitchBackend closes the current server connection and redials the
// newly selected backend, preserving the client's sequence position.
func (in *Instance) kaSwitchBackend(f *flow, next kaRequest, backend rules.Backend) {
	in.note(evReselect, f.vip.IP)
	ka := f.ka
	// Abort the old server connection and clear its SNAT binding.
	in.l4.SendViaSNAT(&netsim.Packet{
		Src: f.snat, Dst: f.server,
		Flags: netsim.FlagRST, Seq: next.startSeq, Ack: f.s + 1,
	}, in.IP())
	oldServerTuple := f.serverTuple()
	in.flows.del(oldServerTuple, f)
	if f.persisted {
		in.store.Delete([]tcpstore.Entry{{Key: in.flowKey(oldServerTuple)}}, nil)
	}
	in.l4.ClearSNAT(oldServerTuple)
	in.releaseSNATPort(f.snat.Port)

	// Releasing first means a switch can always reclaim its own port even
	// when the range is otherwise full.
	port, ok := in.allocSNATPort()
	if !ok {
		in.note(evSNATExhausted, f.vip.IP)
		in.reject(f, 503, "snat ports exhausted")
		return
	}
	f.server = backend.Addr
	f.backendName = backend.Name
	f.snat = netsim.HostPort{IP: f.vip.IP, Port: port}
	in.flows.put(f.serverTuple(), f)
	ka.switching = true
	ka.pendReq = &next
	f.dialTries = 0
	in.kaSendSwitchSyn(f)
}

// kaSendSwitchSyn dials the switch's new backend; a retry is onFlowTimer's,
// under the first dial's policy.
func (in *Instance) kaSendSwitchSyn(f *flow) {
	in.l4.SendViaSNAT(&netsim.Packet{
		Src: f.snat, Dst: f.server,
		Flags:  netsim.FlagSYN,
		Seq:    f.ka.pendReq.startSeq - 1, // handshake consumes one seq unit
		Window: 1 << 20,
	}, in.IP())
	f.dialTries++
	f.dialTimer.Stop()
	f.dialTimer = in.flowTimer(f, 3*time.Second)
}

// kaCompleteSwitch finishes a backend switch on the new server's SYN-ACK.
func (in *Instance) kaCompleteSwitch(f *flow, pkt *netsim.Packet) {
	ka := f.ka
	if ka.committing || pkt.Ack != ka.pendReq.startSeq {
		return // already mid-commit, or stale
	}
	f.dialTimer.Stop()
	f.s = pkt.Seq
	// Rebase translation: the client has already received bytes up to
	// toClientNext in its own view; the new server starts at S+1.
	f.delta = f.toClientNext - (f.s + 1)
	ka.serverNextSeq = f.s + 1
	ka.respBuf, ka.respBody = nil, 0
	ka.serverOOO = nil
	ka.committing = true
	// Rewrite the decoupled state so recovery lands on the new backend —
	// before the ACK and request replay, the same persist-before-ACK rule
	// the first dial obeys (storage-b applied to re-selection).
	in.writeBarrier(f, in.barrierEntries(f, PhaseTunnel, true), func(f *flow) {
		if !ka.switching {
			return
		}
		// ACK and replay the pending request.
		in.l4.SendViaSNAT(&netsim.Packet{
			Src: f.snat, Dst: f.server,
			Flags: netsim.FlagACK,
			Seq:   ka.pendReq.startSeq, Ack: f.s + 1,
			Window: 1 << 20,
		}, in.IP())
		in.forwardClientBytes(f, ka.pendReq.startSeq, ka.pendReq.raw)
		ka.respOutstanding++
		ka.switching = false
		ka.committing = false
		ka.pendReq = nil
	}, func(f *flow, _ error) {
		ka.committing = false
		in.reject(f, 503, "flow state not persisted")
	})
}

// kaFromServer processes a server packet on an inspected keep-alive flow.
func (in *Instance) kaFromServer(f *flow, pkt *netsim.Packet) {
	ka := f.ka
	if ka.switching && pkt.Flags.Has(netsim.FlagSYN|netsim.FlagACK) {
		in.kaCompleteSwitch(f, pkt)
		return
	}
	if pkt.Flags.Has(netsim.FlagSYN) {
		// Retransmitted SYN-ACK of the established connection: re-ACK.
		in.l4.SendViaSNAT(&netsim.Packet{
			Src: f.snat, Dst: f.server,
			Flags: netsim.FlagACK,
			Seq:   f.clientISN + 1, Ack: f.s + 1,
		}, in.IP())
		return
	}
	if pkt.Flags.Has(netsim.FlagFIN) {
		f.serverFin = true
	}
	if len(pkt.Payload) > 0 {
		in.kaAssembleServer(f, pkt.Seq, pkt.Payload)
	}
	end := pkt.SeqEnd() + f.delta
	if seqDiff(end, f.toClientNext) > 0 {
		f.toClientNext = end
	}
	in.net.Send(&netsim.Packet{
		Src: f.vip, Dst: f.client,
		Flags: pkt.Flags, Seq: pkt.Seq + f.delta, Ack: pkt.Ack,
		Window: pkt.Window, Payload: pkt.Payload,
	})
	in.maybeFinish(f)
}

// kaAssembleServer tracks the raw server byte stream to detect response
// boundaries.
func (in *Instance) kaAssembleServer(f *flow, seq uint32, data []byte) {
	ka := f.ka
	if seqDiff(ka.serverNextSeq, seq) > 0 {
		skip := ka.serverNextSeq - seq
		if uint32(len(data)) <= skip {
			return
		}
		data = data[skip:]
		seq = ka.serverNextSeq
	}
	if seq != ka.serverNextSeq {
		park(&ka.serverOOO, seq, data)
		return
	}
	// The in-order bytes, then every parked segment they make contiguous.
	for ok := true; ok; data, ok = ka.serverOOO[ka.serverNextSeq] {
		delete(ka.serverOOO, ka.serverNextSeq)
		ka.serverNextSeq += uint32(len(data))
		in.kaTrackResponses(f, data)
	}
}

// kaTrackResponses follows response boundaries through the next in-order
// bytes of the server stream, releasing held requests as each response
// finishes.
func (in *Instance) kaTrackResponses(f *flow, data []byte) {
	ka := f.ka
	for len(data) > 0 {
		if ka.respBody == 0 { // at, or inside, a header block
			buf := data
			if ka.respBuf != nil {
				ka.respBuf = append(ka.respBuf, data...)
				buf = ka.respBuf
			}
			h, b, err := httpsim.Frame(buf)
			if err != nil {
				return
			}
			if h == 0 {
				if ka.respBuf == nil {
					ka.respBuf = append(ka.respBuf, data...)
				}
				return
			}
			data = data[len(data)-(len(buf)-h):]
			ka.respBuf, ka.respBody = nil, b
		}
		n := min(ka.respBody, len(data))
		ka.respBody -= n
		data = data[n:]
		if ka.respBody > 0 {
			return
		}
		if ka.respOutstanding > 0 {
			ka.respOutstanding--
		}
		if ka.respOutstanding == 0 {
			in.kaFlush(f)
		}
	}
}

// kaMaybeForwardFin forwards a deferred client FIN once all held requests
// have flushed.
func (in *Instance) kaMaybeForwardFin(f *flow) {
	ka := f.ka
	if !ka.finPending || len(ka.queue) > 0 || len(ka.held) > 0 || ka.switching {
		return
	}
	ka.finPending = false
	f.clientFin = true
	in.l4.SendViaSNAT(&netsim.Packet{
		Src: f.snat, Dst: f.server,
		Flags: netsim.FlagFIN | netsim.FlagACK,
		Seq:   ka.finSeq, Ack: ka.finAck - f.delta,
	}, in.IP())
	in.maybeFinish(f)
}
