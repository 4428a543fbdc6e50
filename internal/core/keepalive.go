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

// kaState is the inspected-tunnel bookkeeping of a keep-alive flow. It
// marks the flow's inspection sub-state of Tunnel, as f.tls marks the
// TLS sub-state of Conn, and it stays through a re-dial: a request that
// selects a new backend closes the old server connection and puts the
// flow back in Dialing at that request's first byte, where the first
// dial's code runs again.
type kaState struct {
	held    []byte // in-order client bytes not yet framed into a request
	heldSeq uint32 // client sequence number of held[0]
	// queue holds the framed requests not yet forwarded. During a re-dial
	// its head is the request that chose the new backend.
	queue []kaRequest
	// streamBytes counts bytes of the in-flight request's body that have
	// not arrived yet and should be forwarded straight through (the
	// request was selected off its header; its tail needs no holding).
	streamBytes int

	respOutstanding int // responses owed before the next request may go

	// Response framing over the raw (untranslated) server byte stream:
	// respBuf holds only a header block that is still incomplete, respBody
	// counts the body bytes of the current response still to pass. Bodies
	// are never buffered.
	respBuf    []byte
	respBody   int
	fromServer assembler

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
		fromServer:      assembler{next: f.s + 1},
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

// pop takes the request at the head of the queue.
func (ka *kaState) pop() kaRequest {
	next := ka.queue[0]
	ka.queue[0] = kaRequest{} // an idle flow keeps none of its last request
	ka.queue = ka.queue[1:]
	return next
}

// kaFromClient processes a client packet on an inspected keep-alive flow,
// in Tunnel or in a re-dial.
func (in *Instance) kaFromClient(f *flow, pkt *netsim.Packet) {
	ka := f.ka
	if len(pkt.Payload) > 0 {
		ka.held = f.fromClient.appendTo(ka.held, pkt.Seq, pkt.Payload)
		in.kaFrameAndFlush(f)
	} else if !pkt.Flags.Has(netsim.FlagFIN) && f.state == stateTunnel {
		// Bare ACK: translate and pass through so the server's
		// retransmission timers stay quiet. During a re-dial there is no
		// established server connection to ACK — the segment would only
		// draw a RST from the new backend's listener — so those are
		// dropped (they carry no information the new backend needs).
		in.relay(f, pkt, pkt.Flags, pkt.Window, nil)
	}
	if pkt.Flags.Has(netsim.FlagFIN) {
		ka.finPending = true
		ka.finSeq = pkt.SeqEnd() - 1 // sequence the FIN occupies
		ka.finAck = pkt.Ack
		in.kaMaybeForwardFin(f)
	}
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

// kaFlush forwards the next queued request if no response is outstanding
// and no re-dial is in progress.
func (in *Instance) kaFlush(f *flow) {
	ka := f.ka
	if f.state != stateTunnel || ka.respOutstanding > 0 || len(ka.queue) == 0 {
		in.kaMaybeForwardFin(f)
		return
	}
	engine, ok := in.engines[f.vip.IP]
	if !ok {
		in.reject(f, 503, "vip not assigned to this instance")
		return
	}
	decision := engine.Select(&ka.queue[0].req, in.rng.Float64(), in.info)
	in.CPU.Charge(in.net.Now(), time.Duration(decision.Scanned)*in.cfg.LookupPerRule)
	if !decision.OK {
		in.reject(f, 503, "no rule matched")
		return
	}
	if decision.Backend.Name != f.backendName {
		in.redial(f, decision.Backend)
		return
	}
	next := ka.pop()
	ka.respOutstanding++
	in.forwardClientBytes(f, next.startSeq, next.raw)
	in.kaFlush(f)
}

// redial closes the current server connection and dials backend for the
// request at the head of the queue, preserving the client's sequence
// position: the flow re-enters Dialing, and the first dial's SYN
// retries, storage-b barrier and tunnel entry run from there (§5.2). The
// SYN goes out at once; the rule scan was the request's lookup.
func (in *Instance) redial(f *flow, backend rules.Backend) {
	in.note(evReselect, f.vip.IP)
	// Abort the old server connection and clear its SNAT binding.
	in.l4.SendViaSNAT(in.packet(f.snat, f.server, netsim.FlagRST, f.dialBase(), f.s+1, 0), in.IP())
	oldServerTuple := f.serverTuple()
	in.flows.del(oldServerTuple, f)
	if f.persisted {
		in.store.Delete([]tcpstore.Entry{{Key: in.flowKey(oldServerTuple)}}, nil)
	}
	in.l4.ClearSNAT(oldServerTuple)
	in.releaseSNATPort(f.snat.Port)

	// Releasing first means a re-dial can always reclaim its own port even
	// when the range is otherwise full.
	port, ok := in.allocSNATPort()
	if !ok {
		in.note(evSNATExhausted, f.vip.IP)
		in.reject(f, 503, "snat ports exhausted")
		return
	}
	in.dial(f, backend, port)
	in.sendServerSyn(f)
}

// kaTrackServer follows the raw server byte stream to detect response
// boundaries.
func (in *Instance) kaTrackServer(f *flow, seq uint32, data []byte) {
	a := &f.ka.fromServer
	for d := a.push(seq, data); d != nil; d = a.pop() {
		in.kaTrackResponses(f, d)
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
	if !ka.finPending || len(ka.queue) > 0 || len(ka.held) > 0 || f.state != stateTunnel {
		return
	}
	ka.finPending = false
	f.clientFin = true
	in.l4.SendViaSNAT(in.packet(f.snat, f.server, netsim.FlagFIN|netsim.FlagACK, ka.finSeq, ka.finAck-f.delta, 0), in.IP())
	in.maybeFinish(f)
}
