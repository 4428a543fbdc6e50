package core

import "repro/internal/netsim"

// The flow lifecycle as an explicit state machine, with one seam: every
// transition is a setState call, and every outcome the instance counts is
// a note call. A transition that makes new state recoverable is gated by
// a write barrier (barrier.go), so the TCPStore record lands before the
// packet that created the state is acknowledged (§4.1); the others —
// entering Dialing when a backend is picked, installing an adopted record
// — need no barrier, because they acknowledge nothing.
//
//	        SYN                    backend selected          storage-b barrier
//	client ────▶ Conn ───────────────▶ Dialing ──────────────▶ Tunnel
//	              │                       │                       │
//	              │ TLS hello             │ SYN-ACK + barrier     └▶ KeepAliveTunnel
//	              ▼ (sub-state: f.tls,    ▼                          (HTTP/1.1 inspected
//	        key persisted via barrier   reject on                     tunnel; kaState
//	        before the ServerHello)     exhaustion/refusal            sub-states: switching,
//	                                                                  committing)
//
// The TLS handshake is a guarded sub-state of Conn (f.tls plus
// tlsAdvance) rather than a top-level state: it shares Conn's segment
// assembly, retransmission and FIN handling wholesale and differs only
// in how assembled bytes are interpreted. Likewise the keep-alive
// backend switch is a sub-state of KeepAliveTunnel (kaState.switching /
// kaState.committing) because the client-facing tunnel keeps running
// while the server side redials.

// flowState is one state of the per-flow machine; dispatch routes each
// packet to the handler its flow's state owns.
type flowState uint8

const (
	// stateConn: client handshake done or in progress; no backend yet.
	// Storage-a (and the TLS session key, when terminating) is persisted
	// from this state. The zero value: a new flow starts here.
	stateConn flowState = iota
	// stateDialing: backend SYN sent, storage-b not yet confirmed. Client
	// data keeps buffering; the server side completes the handshake.
	stateDialing
	// stateTunnel: pure sequence-translating tunnel between client and
	// backend.
	stateTunnel
	// stateKATunnel: inspected HTTP/1.1 keep-alive tunnel — client
	// payloads are framed into requests that may re-select backends (§5.2).
	stateKATunnel
)

// setState transitions a flow. It is the only code that writes f.state
// (TestOneLifecycleSeam holds it to that).
func (in *Instance) setState(f *flow, s flowState) { f.state = s }

// dispatch hands a packet to the handler its flow's state owns for the
// side the packet came from.
func (in *Instance) dispatch(f *flow, pkt *netsim.Packet) {
	f.touch(in.net.Now())
	if pkt.Src == f.client {
		switch {
		case f.state == stateConn || f.state == stateDialing:
			in.connPhaseClientPacket(f, pkt)
		case pkt.Flags.Has(netsim.FlagRST): // in either tunnel
			in.abortToServer(f, pkt)
		case f.state == stateTunnel:
			in.tunnelFromClient(f, pkt)
		default:
			in.kaFromClient(f, pkt)
		}
		return
	}
	switch {
	case f.state == stateConn:
		// No backend connection exists yet: a server packet is stale.
	case f.state == stateDialing:
		in.serverHandshakePacket(f, pkt)
	case pkt.Flags.Has(netsim.FlagRST): // in either tunnel
		in.abortToClient(f, pkt)
	case f.state == stateTunnel:
		in.tunnelFromServer(f, pkt)
	default:
		in.kaFromServer(f, pkt)
	}
}

// event is a lifecycle outcome, counted by note into the exported
// counter named beside it.
type event uint8

const (
	evNewFlow          event = iota // VIPStats.NewFlows: a client SYN opened a flow
	evSNATExhausted                 // VIPStats.SNATExhausted: a dial found no free SNAT port
	evBarrierCommit                 // Barrier.Commits
	evBarrierDegrade                // Barrier.Degraded
	evBarrierAbort                  // Barrier.Aborted
	evBarrierTimeout                // Barrier.Timeouts, besides one of the three above
	evBarrierSkip                   // Barrier.Skipped: hybrid mode elided the write
	evAdoptStore                    // Recovered: a store record became a flow
	evAdoptDerived                  // DerivedRecoveries: a derived record became a flow
	evOrphanSuppressed              // SuppressedOrphans: a miss dropped without a RST
	evLookupMiss                    // LookupMisses: an orphan packet nothing recovered
	evReselect                      // Reselections: a keep-alive backend switch
	evClose                         // FlowsClosed: teardown
	evSNATQuarantine                // SNATQuarantined: a released flow's port stays reserved
)

// note counts one lifecycle outcome: it is the only code that increments
// the counters the events name. vip keys the two per-VIP counters; the
// instance-wide ones ignore it.
func (in *Instance) note(ev event, vip netsim.IP) {
	switch ev {
	case evNewFlow:
		in.statsFor(vip).NewFlows++
	case evSNATExhausted:
		in.statsFor(vip).SNATExhausted++
	case evBarrierCommit:
		in.Barrier.Commits++
	case evBarrierDegrade:
		in.Barrier.Degraded++
	case evBarrierAbort:
		in.Barrier.Aborted++
	case evBarrierTimeout:
		in.Barrier.Timeouts++
	case evBarrierSkip:
		in.Barrier.Skipped++
	case evAdoptStore:
		in.Recovered++
	case evAdoptDerived:
		in.DerivedRecoveries++
	case evOrphanSuppressed:
		in.SuppressedOrphans++
	case evLookupMiss:
		in.LookupMisses++
	case evReselect:
		in.Reselections++
	case evClose:
		in.FlowsClosed++
	case evSNATQuarantine:
		in.SNATQuarantined++
	}
}
