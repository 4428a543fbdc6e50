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
//   - storage-a is skipped outright: C is the tuple hash every instance
//     computes, and ClientISN is one less than the first retransmitted
//     payload byte. TLS keys are persisted at the tlsAdvance barrier.
//   - storage-b dry-runs the derivation against the state actually
//     installed (hybridDerivable); only mismatches — the residue — are
//     written. Matching flows run their commit synchronously.
//   - recovery classifies orphans by direction. Backend-side knocks
//     (destination port carries a SNAT cookie) still consult the store,
//     but a miss under a current-epoch cookie is dropped WITHOUT a RST:
//     the state lives on the client side of the flow and the client-side
//     successor's repair write will be there for the backend's next
//     retransmission. Client-side orphans derive the dead owner from the
//     epoch entry, confirm tunnels via a parked backend knock when one
//     exists, and otherwise fall back to the store; a clean miss there
//     means the flow was never persisted, i.e. it is exactly the
//     derivable population, and is rebuilt from the packet in hand.
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
// flows whose owner is absent from the current entry produce no
// dead-owner candidate and take the store path.

// hybridPreferredPort returns the cookie-coded SNAT port the derivation
// layer predicts for a new flow on this instance.
func (in *Instance) hybridPreferredPort(f *flow) (uint16, bool) {
	if in.cfg.Hybrid == nil {
		return 0, false
	}
	return in.cfg.Hybrid.PreferredPort(in.IP(), f.clientTuple())
}

// hybridDerivable reports whether the flow's tunnel state is exactly
// what the stateless layer derives for its tuple — the storage-b records
// are then redundant. Any deviation (TLS, recovered history, sticky or
// health-driven selection, port-collision fallback, a stale mux routing
// the tuple to a non-owner) fails a comparison and keeps the flow
// persisted; the classification compares outcomes, not causes.
func (in *Instance) hybridDerivable(f *flow) bool {
	t := in.cfg.Hybrid
	if t == nil || f.tls != nil || f.recovered || f.persisted {
		return false
	}
	ct := f.clientTuple()
	if owner, ok := t.Owner(f.vip.IP, ct); !ok || owner != in.IP() {
		return false
	}
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
	// Client-side orphan. A tuple whose rendezvous chain has no dead
	// prefix belongs to an alive owner (us, or stale routing): nothing to
	// derive, paper semantics apply.
	in.candScratch = t.DeadOwnerCandidates(tuple.Dst.IP, tuple, in.candScratch[:0])
	cands := in.candScratch
	if len(cands) == 0 {
		in.storeGet(tuple, q, nil)
		return
	}
	b, bok := t.DeriveBackend(tuple.Dst.IP, tuple)
	if !bok {
		// Underivable pool: every flow of this VIP was persisted anyway.
		in.storeGet(tuple, q, nil)
		return
	}
	// Knock check: a pending queue parked on a candidate's predicted
	// server tuple is the backend knocking for exactly the flow this
	// tuple describes — an established tunnel, confirmed without a store
	// read.
	for _, d := range cands {
		port, ok := t.PreferredPort(d, tuple)
		if !ok {
			continue
		}
		st := netsim.FourTuple{Src: b.Addr, Dst: netsim.HostPort{IP: tuple.Dst.IP, Port: port}}
		if kq, found := in.pending[st]; found {
			in.hybridKnockConfirm(tuple, q, st, kq, b, port)
			return
		}
	}
	port, portOK := uint16(0), false
	if len(cands) == 1 {
		port, portOK = t.PreferredPort(cands[0], tuple)
	}
	in.hybridClientGet(tuple, q, b, port, portOK)
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
// one place a store record becomes a flow. A hit installs it, marks it
// persisted (the record just read is in the store, so teardown owes its
// deletes) and replays the queue. A miss hands the queued packets to
// miss; nil is the paper's answer, shared by the hybrid paths that fall
// through to it: count the miss and RST the sender.
func (in *Instance) storeGet(tuple netsim.FourTuple, q *pendingQueue, miss func(queued []*netsim.Packet)) {
	in.store.Get(in.flowKey(tuple), func(value []byte, ok bool, err error) {
		queued, live := in.resolveQueue(tuple, q)
		if !live {
			return
		}
		if !ok || err != nil {
			if miss != nil {
				miss(queued)
				return
			}
			in.LookupMisses++
			in.rstQueued(queued)
			return
		}
		rec, derr := UnmarshalRecord(value)
		if derr != nil {
			in.LookupMisses++
			return
		}
		if f := in.installRecovered(rec); f != nil {
			f.persisted = true
			in.Recovered++
			in.dispatchQueued(queued)
		}
	})
}

// rstQueued resets the sender of a missed queue's first packet.
func (in *Instance) rstQueued(queued []*netsim.Packet) {
	if len(queued) == 0 || queued[0].Flags.Has(netsim.FlagRST) {
		return
	}
	p := queued[0]
	in.net.Send(&netsim.Packet{
		Src: p.Dst, Dst: p.Src,
		Flags: netsim.FlagRST | netsim.FlagACK,
		Seq:   p.Ack, Ack: p.SeqEnd(),
	})
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
	in.storeGet(tuple, q, func([]*netsim.Packet) { in.SuppressedOrphans++ })
}

// hybridClientGet consults the store for a client-side orphan whose
// rendezvous chain passes through dead instances. A hit is the paper
// path. A clean miss means the flow was never persisted — exactly the
// derivable population — and is classified by what the client has
// acknowledged: nothing beyond the SYN-ACK, with payload in hand, and
// the connection phase replays from the retransmitted request (the
// client's first payload byte pins ClientISN, the tuple hash pins C, and
// the replayed request re-runs selection with the table draw, so the
// flow converges onto the backend the dead owner would have picked and
// classifies itself at its own storage-b); data acknowledged, with a
// single dead-owner candidate, and the tunnel state is derived outright
// and repair-written. Ambiguous cases (bare ACK, multiple candidates)
// are dropped quietly — the sender's retransmission or a backend knock
// re-triggers classification with more evidence.
func (in *Instance) hybridClientGet(tuple netsim.FourTuple, q *pendingQueue, b stateless.Backend, port uint16, portOK bool) {
	in.storeGet(tuple, q, func(queued []*netsim.Packet) {
		p0 := queued[0]
		if p0.Flags.Has(netsim.FlagRST) {
			in.LookupMisses++
			return
		}
		if p0.Ack == isnHash(tuple.Src, tuple.Dst)+1 {
			if len(p0.Payload) == 0 {
				in.SuppressedOrphans++
				return
			}
			in.installRecovered(&Record{Phase: PhaseConn, Client: tuple.Src, VIP: tuple.Dst, ClientISN: p0.Seq - 1})
			in.DerivedRecoveries++
			in.dispatchQueued(queued)
			return
		}
		if !portOK {
			in.SuppressedOrphans++
			return
		}
		in.DerivedRecoveries++
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
	in.DerivedRecoveries++
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
	})
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
	if in.cfg.Hybrid == nil || in.dead {
		return 0
	}
	var victims []*flow
	in.flows.forEach(func(f *flow) {
		if !f.persisted {
			victims = append(victims, f)
		}
	})
	for _, f := range victims {
		phase, both := PhaseConn, false
		if f.state == stateTunnel || f.state == stateKATunnel {
			phase, both = PhaseTunnel, true
		}
		in.writeBarrier(f, in.barrierEntries(f, phase, both), func(*flow) {}, nil)
	}
	return len(victims)
}
