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
//	        SYN                 backend selected          storage-b barrier
//	client ────▶ Conn ────────────────▶ Dialing ─────────────────▶ Tunnel
//	              │                     │  ▲                        │
//	              │ TLS hello           │  └────────────────────────┘
//	              ▼ (sub-state: f.tls,  ▼      keep-alive request for another
//	        key persisted via barrier  reject on     backend: re-dial at its
//	        before the ServerHello)    exhaustion,   first byte (sub-state of
//	                                   refusal       Tunnel: f.ka, inspection)
//
// The TLS handshake is a guarded sub-state of Conn (f.tls plus
// tlsAdvance) rather than a top-level state: it shares Conn's segment
// assembly, retransmission and FIN handling wholesale and differs only
// in how assembled bytes are interpreted. Keep-alive inspection is
// likewise a sub-state of Tunnel (f.ka): it frames client requests and
// follows response boundaries on top of the same translation. A request
// that selects another backend sends the flow back to Dialing, where the
// first dial's SYN retries, storage-b and tunnel entry run again; f.ka
// stays set through the re-dial, so client packets keep taking the
// inspection path (held, never forwarded, until Tunnel).

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
	// stateTunnel: sequence-translating tunnel between client and
	// backend; with f.ka set, an inspected HTTP/1.1 keep-alive tunnel
	// whose requests may re-select backends (§5.2).
	stateTunnel
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
		case f.ka == nil && f.state != stateTunnel: // Conn, or a first dial
			in.connPhaseClientPacket(f, pkt)
		case pkt.Flags.Has(netsim.FlagRST):
			in.abort(f, pkt)
		case f.ka != nil: // inspected, in Tunnel or a re-dial
			in.kaFromClient(f, pkt)
		default:
			in.tunnelFromClient(f, pkt)
		}
		return
	}
	switch {
	case f.state == stateConn:
		// No backend connection exists yet: a server packet is stale.
	case f.state == stateDialing && pkt.Dst == f.snat:
		in.serverHandshakePacket(f, pkt)
	case f.state == stateDialing:
		// A keep-alive switch's old backend, which the commit resets.
	case pkt.Flags.Has(netsim.FlagRST):
		in.abort(f, pkt)
	default:
		in.tunnelFromServer(f, pkt)
	}
}

// event is a lifecycle outcome, named to the tracer by eventNames and,
// where one is named beside it, counted by note into an exported
// counter; the trace alone records the rest.
type event uint8

const (
	evNewFlow          event = iota // a client SYN opened a flow
	evSNATExhausted                 // VIPStats.SNATExhausted: a dial found no free SNAT port
	evBarrierCommit                 // Barrier.Commits
	evBarrierDegrade                // Barrier.Degraded
	evBarrierAbort                  // Barrier.Aborted
	evBarrierTimeout                // Barrier.Timeouts, besides one of the three above
	evBarrierSkip                   // hybrid mode elided the write
	evAdoptConn                     // Recovered: a connection-phase store record became a flow
	evAdoptTunnel                   // Recovered: a tunnel-phase store record became a flow
	evAdoptDerived                  // DerivedRecoveries: a derived record became a flow
	evOrphanSuppressed              // SuppressedOrphans: a miss dropped without a RST
	evLookupMiss                    // LookupMisses: an orphan packet nothing recovered
	evReselect                      // a keep-alive backend switch
	evClose                         // teardown
	evSNATQuarantine                // a released flow's port stays reserved
)

// eventNames is what the tracer reads for each event, and what tests
// count (TestOneLifecycleSeam holds every name set and distinct).
var eventNames = [...]string{
	evNewFlow:          "new flow",
	evSNATExhausted:    "snat exhausted",
	evBarrierCommit:    "barrier commit",
	evBarrierDegrade:   "barrier degrade",
	evBarrierAbort:     "barrier abort",
	evBarrierTimeout:   "barrier timeout",
	evBarrierSkip:      "barrier skip",
	evAdoptConn:        "adopt store conn",
	evAdoptTunnel:      "adopt store tunnel",
	evAdoptDerived:     "adopt derived",
	evOrphanSuppressed: "orphan suppressed",
	evLookupMiss:       "lookup miss",
	evReselect:         "reselect",
	evClose:            "close",
	evSNATQuarantine:   "snat quarantine",
}

// adoptFrom is the event of a store record's adoption, by its phase.
var adoptFrom = [...]event{PhaseConn: evAdoptConn, PhaseTunnel: evAdoptTunnel}

// note passes one lifecycle outcome of tuple's flow to the network's
// tracer, and counts it if its event names a counter: it is the only
// code that increments those counters. The tuple's VIP keys the per-VIP
// one; the instance-wide ones ignore it.
func (in *Instance) note(ev event, tuple netsim.FourTuple) {
	switch ev {
	case evSNATExhausted:
		in.statsFor(tuple.Dst.IP).SNATExhausted++
	case evBarrierCommit:
		in.Barrier.Commits++
	case evBarrierDegrade:
		in.Barrier.Degraded++
	case evBarrierAbort:
		in.Barrier.Aborted++
	case evBarrierTimeout:
		in.Barrier.Timeouts++
	case evAdoptConn, evAdoptTunnel:
		in.Recovered++
	case evAdoptDerived:
		in.DerivedRecoveries++
	case evOrphanSuppressed:
		in.SuppressedOrphans++
	case evLookupMiss:
		in.LookupMisses++
	}
	in.net.Note(in.IP(), tuple, eventNames[ev])
}
