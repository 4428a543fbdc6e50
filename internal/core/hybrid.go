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
//   - recovery classifies orphans by direction. A backend-side knock
//     (its destination port carries a SNAT cookie) consults the store; a
//     miss under a current-epoch cookie is parked, not RST: the flow's
//     state lives on the client side. A client-side orphan whose head is
//     dead confirms its tunnel from a parked knock when one is here, and
//     otherwise falls back to the store; a clean miss there means the
//     flow lived unpersisted on that head, and it is rebuilt from the
//     packet in hand, or, on a bare ACK, claims the predicted server
//     tuple at the mux so the backend's next knock parks here.
//   - every adoption claims both tuple orientations at the mux, and a
//     derivation-based tunnel install repair-writes the derived record
//     under both, so one survivor holds the orphan however its two halves
//     were remapped.
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
		in.storeGet(tuple, q, missReset)
		return
	}
	// Knock check: a pending queue parked on the head's predicted server
	// tuple is the backend knocking for exactly the flow this tuple
	// describes — an established tunnel, confirmed without a store read.
	st := netsim.FourTuple{Src: b.Addr, Dst: netsim.HostPort{IP: tuple.Dst.IP, Port: port}}
	if kq, found := in.pending[st]; found {
		in.hybridKnockConfirm(tuple, q, st, kq, b)
		return
	}
	in.hybridClientGet(tuple, q, st, b)
}

// resolveQueue detaches a pending queue, returning its packets; ok=false
// when the queue already expired or the instance died. Whoever resolves
// a queue owns its packets, and frees it (freeQueue) once it has released
// them or handed them on.
func (in *Instance) resolveQueue(tuple netsim.FourTuple, q *pendingQueue) ([]*netsim.Packet, bool) {
	if in.dead || in.pending[tuple] != q {
		return nil, false
	}
	queued := q.pkts
	delete(in.pending, tuple)
	in.pendingTotal -= len(queued)
	in.net.Stop(q.expire)
	return queued, true
}

// handOff detaches a resolved queue's packets for a caller that keeps
// them past the queue's reuse, and frees the queue.
func (in *Instance) handOff(q *pendingQueue) []*netsim.Packet {
	queued := q.pkts
	q.pkts = nil
	in.freeQueue(q)
	return queued
}

// dispatchQueued replays resolved parked copies into the flow table and
// releases them. A tunnel relays a payload in place, and its segment
// takes the array on (relay, netsim.MovePayload); every other array goes
// back to the pool with its copy.
func (in *Instance) dispatchQueued(queued []*netsim.Packet) {
	for _, p := range queued {
		if cur := in.flows.get(p.Tuple()); cur != nil {
			in.dispatch(cur, p)
		}
		in.net.ReleasePacket(p)
	}
}

// storeGet reads tuple's record from TCPStore for a pending queue — the
// one place a store record becomes a flow (lookedUp). miss is what a miss
// does; missReset is the paper's answer, shared by the hybrid paths that
// fall through to it: count the miss and RST the sender.
func (in *Instance) storeGet(tuple netsim.FourTuple, q *pendingQueue, miss missAction) {
	q.miss, q.lookup = miss, true
	in.store.Get(in.flowKey(tuple), q.lookupFn)
}

// lookedUp is a store read's answer for q. A hit, decoded into instance
// scratch, installs the flow and replays the queue, unless another
// survivor adopted the flow first and claimed the tuple: then the queued
// packets go back to the mux, which routes them to it. A lookup that
// leaves the tuple without a flow or a parked queue releases the mux
// entry that brought it here.
func (in *Instance) lookedUp(q *pendingQueue, value []byte, ok bool, err error) {
	tuple, miss := q.tuple, q.miss
	q.miss, q.lookup = missReset, false
	queued, live := in.resolveQueue(tuple, q)
	if !live {
		in.freeQueue(q) // its resolver left it to the read
		return
	}
	switch {
	case ok && err == nil:
		rec := &in.recRecord
		derr := rec.unmarshal(value, &in.recTLS, &in.backendNames)
		if h, held := in.l4.Holder(tuple); derr == nil && held && h != in.IP() && in.flows.get(tuple) == nil {
			for _, p := range in.handOff(q) {
				in.net.Send(p)
			}
			return
		}
		if derr == nil {
			in.installRecovered(rec, adoptFrom[rec.Phase])
			in.dispatchQueued(queued)
			in.freeQueue(q)
			return
		}
		in.note(evLookupMiss, tuple)
		in.dropParked(queued)
	case miss == missPark:
		in.note(evOrphanSuppressed, tuple)
		in.park(tuple, in.handOff(q)...)
		return
	case miss == missDerive:
		in.hybridDerive(q)
		in.releaseOrphan(tuple)
		return
	default:
		in.note(evLookupMiss, tuple)
		in.rstQueued(queued)
		in.dropParked(queued)
	}
	in.freeQueue(q)
	in.releaseOrphan(tuple)
}

// releaseOrphan drops tuple's mux entry when it names this instance and
// neither a local flow nor a parked queue holds the tuple.
func (in *Instance) releaseOrphan(tuple netsim.FourTuple) {
	if in.flows.get(tuple) == nil && in.pending[tuple] == nil {
		in.l4.Release(tuple, in.IP())
	}
}

// rstQueued resets the sender of a missed queue's first packet.
func (in *Instance) rstQueued(queued []*netsim.Packet) {
	if len(queued) == 0 || queued[0].Flags.Has(netsim.FlagRST) {
		return
	}
	p := queued[0]
	// G1′: no state — no record or derivation holds the flow.
	in.net.Send(in.packet(p.Dst, p.Src, netsim.FlagRST|netsim.FlagACK, p.Ack, p.SeqEnd(), 0))
}

// hybridServerGet consults the store for a backend-side knock. A hit is
// the paper path (residue records and client-side repair writes land
// here). A miss under a current-epoch cookie parks the knock WITHOUT a
// RST, keeping its mux entry: the flow may be unpersisted, derivable
// only from the client side, and the client's next probe confirms it
// here (hybridKnockConfirm). Stale or tail-range ports keep the paper's
// RST (those flows were persisted; a miss means the record is gone).
func (in *Instance) hybridServerGet(tuple netsim.FourTuple, q *pendingQueue, current bool) {
	if !current {
		in.storeGet(tuple, q, missReset)
		return
	}
	in.storeGet(tuple, q, missPark)
}

// hybridClientGet consults the store for a client-side orphan whose head
// is dead. A hit is the paper path. A clean miss means the flow lived
// unpersisted on that head, with server tuple st, and is classified by
// what the client has acknowledged: data, and the tunnel is derived from
// the head and repair-written; nothing beyond the SYN-ACK, with payload
// in hand, and the connection phase replays from the request (its first
// byte pins ClientISN, the tuple hash pins C; it re-runs selection and
// persists at its own storage-b). A bare ACK at C+1 is ambiguous: it is
// dropped quietly but claims st, so the backend's knocks park here for
// the client's next probe to confirm. A replay, a RST or an idle flow's
// lifetime after the claim releases st, so a silent client pins nothing.
func (in *Instance) hybridClientGet(tuple netsim.FourTuple, q *pendingQueue, st netsim.FourTuple, b stateless.Backend) {
	q.st, q.b = st, b
	in.storeGet(tuple, q, missDerive)
}

// hybridDerive is hybridClientGet's clean miss, for q resolved with its
// packets. q is freed here, or by the repair write's commit, or when the
// claim on q.st ends (releaseClaim).
func (in *Instance) hybridDerive(q *pendingQueue) {
	tuple, st, queued := q.tuple, q.st, q.pkts
	p0 := queued[0]
	rst := p0.Flags.Has(netsim.FlagRST)
	if !rst && p0.Ack != isnHash(tuple.Src, tuple.Dst)+1 {
		in.hybridRepair(in.installDerivedTunnel(tuple, st, q.b, p0.Seq), q)
		return
	}
	switch {
	case rst:
		in.note(evLookupMiss, tuple)
		in.dropParked(queued)
	case len(p0.Payload) == 0:
		in.note(evOrphanSuppressed, tuple)
		in.dropParked(queued)
		if h, held := in.l4.Holder(st); !held || h != in.IP() {
			in.l4.Claim(st, in.IP())
			q.expire = in.net.Arm(max(in.cfg.FlowIdleTimeout, pendingExpiry), (*claimDue)(q))
			q.claim = int32(len(in.claims))
			in.claims = append(in.claims, q)
			return
		}
		in.freeQueue(q)
		return
	default:
		in.installRecovered(&Record{Phase: PhaseConn, Client: tuple.Src, VIP: tuple.Dst, ClientISN: p0.Seq - 1}, evAdoptDerived)
		in.dispatchQueued(queued)
	}
	in.freeQueue(q)
	in.l4.Release(st, in.IP())
}

// releaseClaim ends a bare ACK's claim on q.st (hybridDerive) and frees
// q, moving the last claim into its place in in.claims.
func (in *Instance) releaseClaim(q *pendingQueue) {
	n := len(in.claims) - 1
	last := in.claims[n]
	in.claims[q.claim], last.claim = last, q.claim
	in.claims[n] = nil
	in.claims = in.claims[:n]
	in.releaseOrphan(q.st)
	in.freeQueue(q)
}

// hybridKnockConfirm resolves a client-side orphan whose predicted
// server tuple already has a backend knocking: install the derived
// tunnel, repair-write it, then replay both queues.
func (in *Instance) hybridKnockConfirm(tuple netsim.FourTuple, q *pendingQueue, st netsim.FourTuple, kq *pendingQueue, b stateless.Backend) {
	queued, live := in.resolveQueue(tuple, q)
	if !live {
		return
	}
	// Detaching the knock queue cancels its in-flight store lookup (the
	// callback checks queue identity). Its packets replay after q's.
	if knocks, live := in.resolveQueue(st, kq); live {
		q.pkts = append(q.pkts, knocks...)
		in.freeQueue(kq)
	}
	in.hybridRepair(in.installDerivedTunnel(tuple, st, b, queued[0].Seq), q)
}

// hybridRepair persists a derived flow's record under both tuple
// orientations, then replays q, resolved (replayRepaired). The
// write-before-dispatch order is what lets the backend-side successor
// converge: its next lookup for the server tuple hits this record.
func (in *Instance) hybridRepair(f *flow, q *pendingQueue) {
	in.writeBarrier(f, in.barrierEntries(f, PhaseTunnel, true), q.repairFn, nil)
}

// replayRepaired is a repair write's commit: q's packets replay and q is
// freed. A flow torn down mid-write leaves q to the collector.
func (in *Instance) replayRepaired(q *pendingQueue) {
	in.dispatchQueued(q.pkts)
	in.freeQueue(q)
}

// installDerivedTunnel rebuilds a tunnel-phase flow entirely from the
// derivation layer — backend and SNAT port from the epoch table, S from
// the deterministic backend ISN, Delta = C − S — as the record the dead
// owner would have written at storage-b for server tuple st, installed
// the way a record read from the store is.
func (in *Instance) installDerivedTunnel(ct, st netsim.FourTuple, b stateless.Backend, firstSeq uint32) *flow {
	c := isnHash(ct.Src, ct.Dst)
	s := tcp.DeterministicISN(in.cfg.Hybrid.ISNKey(), st.Src, st.Dst)
	return in.installRecovered(&Record{
		Phase: PhaseTunnel, Client: ct.Src, VIP: ct.Dst, ClientISN: firstSeq - 1,
		Server: st.Src, SNAT: st.Dst, C: c, S: s, Delta: c - s, BackendName: b.Name,
	}, evAdoptDerived)
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
