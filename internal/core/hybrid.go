package core

import (
	"repro/internal/netsim"
	"repro/internal/stateless"
	"repro/internal/tcp"
)

// Hybrid stateful/stateless recovery (Cohen et al., "LB Scalability: the
// Right Balance Between Being Stateful and Stateless"): most flows never
// touch TCPStore because every persisted field is a deterministic
// function of the 5-tuple, the table secret, and the current mapping
// epoch. The mechanics:
//
//   - a flow is stateless only when it is created on the head of its
//     rendezvous chain (newClientFlow decides, once). Every other flow —
//     created while its head was dead, or under stale mux routing —
//     takes the paper's persist-before-ACK path from its SYN. So every
//     unpersisted flow lives on its head, and an orphan has at most one
//     derivation candidate however many instances have died.
//   - a stateless flow skips storage-a outright: C is the tuple hash
//     every instance computes, and ClientISN is one less than the first
//     retransmitted payload byte. TLS keys are persisted at the
//     tlsAdvance barrier.
//   - storage-b dry-runs the derivation against the state actually
//     installed (hybridDerivable); only mismatches — the residue — are
//     written. Matching flows run their commit synchronously.
//   - recovery classifies orphans by direction. Backend-side knocks
//     (destination port carries a SNAT cookie) still consult the store,
//     but a miss under a current-epoch cookie is dropped WITHOUT a RST:
//     the state lives on the client side of the flow and the client-side
//     successor's repair write will be there for the backend's next
//     retransmission. A client-side orphan whose head is dead confirms
//     its tunnel via a parked backend knock when one exists, and
//     otherwise falls back to the store; a clean miss there means the
//     flow was never persisted, i.e. it lived unpersisted on that head,
//     and is rebuilt from the packet in hand.
//   - every derivation-based tunnel install immediately repair-writes
//     the derived record under both tuple orientations, so the
//     backend-side successor converges through the store exactly as in
//     the paper's protocol.
//
// Soundness of derivation against the *current* epoch entry: planned
// reconfiguration bumps the epoch and then flushes unpersisted flows
// (FlushUnpersisted), so an unpersisted orphan is always established
// under the current entry; instance death does not bump. The residual
// window — an owner dying after a bump before its flush write lands — is
// one store round trip wide and degrades to the paper's store-miss
// behaviour, never to a mis-derivation toward a dead backend, because
// flows whose head is absent from the current entry have no derivation
// candidate and take the store path.

// hybridPreferredPort returns the cookie-coded SNAT port the derivation
// layer predicts for a stateless flow on this instance.
func (in *Instance) hybridPreferredPort(f *flow) (uint16, bool) {
	if !f.stateless {
		return 0, false
	}
	return in.cfg.Hybrid.PreferredPort(in.IP(), f.clientTuple())
}

// hybridDerivable reports whether a stateless flow's tunnel state is
// exactly what the derivation layer produces for its tuple — the
// storage-b records are then redundant. A flow that has been persisted
// since its SYN (a TLS key, an epoch flush) stays persisted, and any
// deviation (sticky or health-driven selection, port-collision fallback,
// an epoch bump since the SYN) fails a comparison; the classification
// compares outcomes, not causes. A keep-alive re-dial (f.ka set) never
// is: its Δ is rebased on the bytes the old backend sent, which the
// comparison does not cover and no derivation reproduces.
func (in *Instance) hybridDerivable(f *flow) bool {
	if !f.stateless || f.persisted || f.ka != nil {
		return false
	}
	t, ct := in.cfg.Hybrid, f.clientTuple()
	b, ok := t.DeriveBackend(f.vip.IP, ct)
	if !ok || b.Addr != f.server || b.Name != f.backendName {
		return false
	}
	if pref, ok := t.PreferredPort(in.IP(), ct); !ok || pref != f.snat.Port {
		return false
	}
	if tcp.DeterministicISN(t.ISNKey(), f.server, f.snat) != f.s {
		return false
	}
	return true
}

// hybridRecover handles an orphan tuple's freshly created pending queue
// in hybrid mode. It either resolves the queue from derivation alone or
// hands it to one of the store-backed paths below; the caller is done
// either way.
func (in *Instance) hybridRecover(tuple netsim.FourTuple, q *pendingQueue) {
	t := in.cfg.Hybrid
	// Backend-side knock: the destination port decodes as a SNAT cookie.
	if _, current, ok := t.DecodeCookie(tuple.Dst.Port); ok {
		in.hybridServerGet(tuple, q, current)
		return
	}
	// Client-side orphan. Only its head can have held it unpersisted, so
	// a live head (us, or stale routing) leaves nothing to derive, nor do
	// an underivable pool and a head without a cookie range (a hybrid
	// cluster builds neither): paper semantics apply.
	head, ok := t.Head(tuple.Dst.IP, tuple)
	b, bok := t.DeriveBackend(tuple.Dst.IP, tuple)
	port, pok := t.PreferredPort(head, tuple)
	if !ok || !t.Dead(head) || !bok || !pok {
		in.storeGet(tuple, q, nil)
		return
	}
	// Knock check: a pending queue parked on the head's predicted server
	// tuple is the backend knocking for exactly the flow this tuple
	// describes — an established tunnel, confirmed without a store read.
	st := netsim.FourTuple{Src: b.Addr, Dst: netsim.HostPort{IP: tuple.Dst.IP, Port: port}}
	if kq, found := in.pending[st]; found {
		in.hybridKnockConfirm(tuple, q, st, kq, b, port)
		return
	}
	in.hybridClientGet(tuple, q, b, port)
}

// resolveQueue detaches a pending queue, returning its packets; ok=false
// when the queue already expired or the instance died.
func (in *Instance) resolveQueue(tuple netsim.FourTuple, q *pendingQueue) ([]*netsim.Packet, bool) {
	if in.dead || in.pending[tuple] != q {
		return nil, false
	}
	queued := q.pkts
	delete(in.pending, tuple)
	in.pendingTotal -= len(queued)
	q.expire.Stop()
	return queued, true
}

// dispatchQueued replays a resolved queue into the flow table.
func (in *Instance) dispatchQueued(queued []*netsim.Packet) {
	for _, p := range queued {
		if cur := in.flows.get(p.Tuple()); cur != nil {
			in.dispatch(cur, p)
		}
	}
}

// storeGet reads tuple's record from TCPStore for a pending queue — the
// one place a store record becomes a flow. A hit installs it and replays
// the queue. A miss hands the queued packets to miss; nil is the paper's
// answer, shared by the hybrid paths that fall through to it: count the
// miss and RST the sender. A lookup that leaves the tuple without a flow
// releases the mux entry that brought it here, so an orphan nobody holds
// is not pinned.
func (in *Instance) storeGet(tuple netsim.FourTuple, q *pendingQueue, miss func(queued []*netsim.Packet)) {
	in.store.Get(in.flowKey(tuple), func(value []byte, ok bool, err error) {
		queued, live := in.resolveQueue(tuple, q)
		if !live {
			return
		}
		switch {
		case ok && err == nil:
			rec, derr := UnmarshalRecord(value)
			if derr == nil {
				in.installRecovered(rec, evAdoptStore)
				in.dispatchQueued(queued)
				return
			}
			in.note(evLookupMiss, tuple.Dst.IP)
		case miss != nil:
			miss(queued)
		default:
			in.note(evLookupMiss, tuple.Dst.IP)
			in.rstQueued(queued)
		}
		if in.flows.get(tuple) == nil {
			in.l4.Release(tuple, in.IP())
		}
	})
}

// rstQueued resets the sender of a missed queue's first packet.
func (in *Instance) rstQueued(queued []*netsim.Packet) {
	if len(queued) == 0 || queued[0].Flags.Has(netsim.FlagRST) {
		return
	}
	p := queued[0]
	in.net.Send(in.packet(p.Dst, p.Src, netsim.FlagRST|netsim.FlagACK, p.Ack, p.SeqEnd(), 0))
}

// hybridServerGet consults the store for a backend-side knock. A hit is
// the paper path (residue records and client-side repair writes land
// here). A miss under a current-epoch cookie is dropped WITHOUT a RST —
// the flow may be unpersisted, with its state derivable only from the
// client side; answering RST would kill the backend connection before
// the client-side successor can repair-write it. Stale or tail-range
// ports keep the paper's RST (those flows were persisted; a miss means
// the record is genuinely gone).
func (in *Instance) hybridServerGet(tuple netsim.FourTuple, q *pendingQueue, current bool) {
	if !current {
		in.storeGet(tuple, q, nil)
		return
	}
	in.storeGet(tuple, q, func([]*netsim.Packet) { in.note(evOrphanSuppressed, tuple.Dst.IP) })
}

// hybridClientGet consults the store for a client-side orphan whose head
// is dead. A hit is the paper path. A clean miss means the flow was
// never persisted — it lived unpersisted on that head — and is
// classified by what the client has acknowledged: nothing beyond the
// SYN-ACK, with payload in hand, and the connection phase replays from
// the retransmitted request (the client's first payload byte pins
// ClientISN, the tuple hash pins C, and the replayed request re-runs
// selection and persists at its own storage-b); data acknowledged, and
// the tunnel state is derived outright from the head and repair-written.
// A bare ACK at C+1 is ambiguous and dropped quietly — the sender's
// retransmission or a backend knock re-triggers classification with
// more evidence.
func (in *Instance) hybridClientGet(tuple netsim.FourTuple, q *pendingQueue, b stateless.Backend, port uint16) {
	in.storeGet(tuple, q, func(queued []*netsim.Packet) {
		p0, vip := queued[0], tuple.Dst.IP
		if p0.Flags.Has(netsim.FlagRST) {
			in.note(evLookupMiss, vip)
			return
		}
		if p0.Ack == isnHash(tuple.Src, tuple.Dst)+1 {
			if len(p0.Payload) == 0 {
				in.note(evOrphanSuppressed, vip)
				return
			}
			in.installRecovered(&Record{Phase: PhaseConn, Client: tuple.Src, VIP: tuple.Dst, ClientISN: p0.Seq - 1}, evAdoptDerived)
			in.dispatchQueued(queued)
			return
		}
		in.hybridRepair(in.installDerivedTunnel(tuple, b, port, p0.Seq), queued, nil)
	})
}

// hybridKnockConfirm resolves a client-side orphan whose predicted
// server tuple already has a backend knocking: install the derived
// tunnel, repair-write it, then replay both queues.
func (in *Instance) hybridKnockConfirm(tuple netsim.FourTuple, q *pendingQueue, st netsim.FourTuple, kq *pendingQueue, b stateless.Backend, port uint16) {
	queued, live := in.resolveQueue(tuple, q)
	if !live {
		return
	}
	// Detaching the knock queue cancels its in-flight store lookup (the
	// callback checks queue identity).
	knocks, _ := in.resolveQueue(st, kq)
	in.hybridRepair(in.installDerivedTunnel(tuple, b, port, queued[0].Seq), queued, knocks)
}

// hybridRepair persists a derived flow's record under both tuple
// orientations, then replays the queues. The write-before-dispatch order
// is what lets the backend-side successor converge: its next lookup for
// the server tuple hits this record.
func (in *Instance) hybridRepair(f *flow, queued, knocks []*netsim.Packet) {
	in.writeBarrier(f, in.barrierEntries(f, PhaseTunnel, true), func(*flow) {
		in.dispatchQueued(queued)
		in.dispatchQueued(knocks)
	}, nil)
}

// installDerivedTunnel rebuilds a tunnel-phase flow entirely from the
// derivation layer — backend and SNAT port from the epoch table, S from
// the deterministic backend ISN, Delta = C − S — as the record the dead
// owner would have written at storage-b, installed the way a record read
// from the store is.
func (in *Instance) installDerivedTunnel(ct netsim.FourTuple, b stateless.Backend, port uint16, firstSeq uint32) *flow {
	snat := netsim.HostPort{IP: ct.Dst.IP, Port: port}
	c := isnHash(ct.Src, ct.Dst)
	s := tcp.DeterministicISN(in.cfg.Hybrid.ISNKey(), b.Addr, snat)
	return in.installRecovered(&Record{
		Phase: PhaseTunnel, Client: ct.Src, VIP: ct.Dst, ClientISN: firstSeq - 1,
		Server: b.Addr, SNAT: snat, C: c, S: s, Delta: c - s, BackendName: b.Name,
	}, evAdoptDerived)
}

// FlowInfo is a read-only snapshot of one live flow, for tests and
// diagnostics (the differential oracle compares these against the
// stateless derivation).
type FlowInfo struct {
	Client, VIP, Server, SNAT netsim.HostPort
	C, S, Delta               uint32
	Persisted, Recovered      bool
}

// SnapshotFlows returns a snapshot of every live flow.
func (in *Instance) SnapshotFlows() []FlowInfo {
	var out []FlowInfo
	in.flows.forEach(func(f *flow) {
		out = append(out, FlowInfo{
			Client: f.client, VIP: f.vip, Server: f.server, SNAT: f.snat,
			C: f.c, S: f.s, Delta: f.delta,
			Persisted: f.persisted, Recovered: f.recovered,
		})
	})
	return out
}

// FlushUnpersisted writes every still-unpersisted flow's record to the
// store under its current phase. The controller calls this on live
// instances immediately after an epoch bump so the invariant holds that
// every unpersisted flow in the system was established under the
// current epoch — flows that predate the bump become ordinary persisted
// residue and recover through the store, never through a stale
// derivation. Returns the number of flows flushed.
func (in *Instance) FlushUnpersisted() int {
	var victims []*flow
	in.flows.forEach(func(f *flow) {
		if !f.persisted {
			victims = append(victims, f)
		}
	})
	for _, f := range victims {
		phase, both := PhaseConn, false
		if f.state == stateTunnel || f.ka != nil { // a keep-alive re-dial is tunnel phase
			phase, both = PhaseTunnel, true
		}
		in.writeBarrier(f, in.barrierEntries(f, phase, both), func(*flow) {}, nil)
	}
	return len(victims)
}
