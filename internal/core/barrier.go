package core

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/tcpstore"
)

// The write barrier is the dataplane's one way to persist flow state:
// "write these records to TCPStore, then continue, or take this failure
// path". It is how the paper's §4.1 invariant — state reaches the store
// before the packet that created it is acknowledged — shows up in code:
// the acknowledgement (SYN-ACK, ACK-to-server, ServerHello) lives in the
// commit continuation, so it structurally cannot be sent early.
//
// Failure policy. By default the barrier degrades: if the store is
// unreachable it counts the loss and runs the commit anyway, because
// availability of new connections beats recoverability (a dead TCPStore
// degrades Yoda to HAProxy semantics — the paper assumes the store is
// up). With Config.StrictPersist the barrier instead takes the failure
// path when no replica stored a record, so the flow is never
// acknowledged in a state the cluster cannot recover.

// BarrierStats counts barrier resolutions. Commits, Degraded and
// Aborted are disjoint; Timeouts is counted in addition (a timed-out
// barrier also resolves as one of the other three).
type BarrierStats struct {
	// Commits: every record reached every replica.
	Commits uint64
	// Degraded: some replica write failed but the commit ran anyway
	// (default policy, or the record is still on ≥1 replica).
	Degraded uint64
	// Aborted: StrictPersist and a record is unrecoverable — the failure
	// continuation ran and the acknowledgement was never sent.
	Aborted uint64
	// Timeouts: the store resolved at OpTimeout rather than by replies.
	Timeouts uint64
	// Skipped: barriers elided entirely in hybrid recovery mode because
	// the stateless derivation reproduces the record exactly (the commit
	// continuation ran synchronously, no store write was issued).
	Skipped uint64
}

// writeBarrier persists entries in one batched store round trip, then
// runs commit — or fail, when StrictPersist is set and some record
// ended up on zero replicas. Exactly one of commit/fail runs, with f,
// and only if f is still the live flow for its client tuple (a flow torn
// down while the write was in flight gets neither). fail may be nil,
// which forces the degrade path even under StrictPersist (used where no
// sensible abort exists). Handed the flow, storage-a and storage-b pass
// methods bound once per instance; rarer barriers pass closures.
func (in *Instance) writeBarrier(f *flow, entries []tcpstore.Entry, commit func(*flow), fail func(*flow, error)) {
	// The flow may now have store state (even a degraded write can have
	// reached a replica), so teardown must issue deletes and the hybrid
	// epoch flush can skip it.
	f.persisted = true
	op := in.takeBarrierOp()
	op.f, op.commit, op.fail = f, commit, fail
	op.storeStart = in.net.Now()
	in.store.SetMulti(entries, op.cb)
}

// barrierOp carries one in-flight barrier write's continuations. Ops are
// pooled on the instance with the store callback pre-bound, so a barrier
// write does not allocate a closure per flow event; the store invokes cb
// exactly once, which recycles the op before running the continuation
// (the continuation may start a nested barrier write).
type barrierOp struct {
	in         *Instance
	f          *flow
	commit     func(*flow)
	fail       func(*flow, error)
	storeStart time.Duration
	cb         func(tcpstore.SetResult)
}

func (in *Instance) takeBarrierOp() *barrierOp {
	if n := len(in.freeBarrierOps); n > 0 {
		op := in.freeBarrierOps[n-1]
		in.freeBarrierOps = in.freeBarrierOps[:n-1]
		return op
	}
	op := &barrierOp{in: in}
	op.cb = op.resolve
	return op
}

func (op *barrierOp) resolve(res tcpstore.SetResult) {
	in, f, commit, fail := op.in, op.f, op.commit, op.fail
	storeStart := op.storeStart
	op.f, op.commit, op.fail = nil, nil, nil
	if len(in.freeBarrierOps) < 32 {
		in.freeBarrierOps = append(in.freeBarrierOps, op)
	}
	in.StorageLat.Add(in.net.Now() - storeStart)
	if in.flows.get(f.clientTuple()) != f {
		return // flow torn down while the write was in flight
	}
	if res.TimedOut {
		in.note(evBarrierTimeout, f.vip.IP)
	}
	switch {
	case res.Err != nil && in.cfg.StrictPersist && fail != nil:
		in.note(evBarrierAbort, f.vip.IP)
		fail(f, res.Err)
		return
	case res.Err != nil || res.Failed > 0:
		in.note(evBarrierDegrade, f.vip.IP)
	default:
		in.note(evBarrierCommit, f.vip.IP)
	}
	commit(f)
}

// barrierEntries builds the store records for a flow: the client-tuple
// orientation always, plus the server-tuple orientation once a backend
// is bound (both directions must recover to the same flow, Figure 3).
func (in *Instance) barrierEntries(f *flow, phase FlowPhase, bothTuples bool) []tcpstore.Entry {
	f.fillRecord(&in.recRecord, &in.recTLS, phase)
	in.recScratch = in.recRecord.AppendMarshal(in.recScratch[:0])
	return in.flowEntries(f, in.recScratch, bothTuples)
}

// flowEntries pairs value with f's store keys: the client tuple's always,
// the server tuple's too when bothTuples. The barrier writes them and
// teardown deletes them. The entries alias instance-owned scratch — valid
// only until the next flowEntries or flowKey call, which the store's
// synchronous entry consumption permits — so neither path allocates.
func (in *Instance) flowEntries(f *flow, value []byte, bothTuples bool) []tcpstore.Entry {
	keys := AppendFlowKey(in.keyScratch[:0], f.clientTuple())
	in.entScratch[0] = tcpstore.Entry{Key: keys[:FlowKeyLen:FlowKeyLen], Value: value}
	entries := in.entScratch[:1]
	if bothTuples {
		// A grow here may move the buffer; the first key's slice keeps the
		// old backing array alive, so both entries stay valid.
		keys = AppendFlowKey(keys, f.serverTuple())
		in.entScratch[1] = tcpstore.Entry{Key: keys[FlowKeyLen:], Value: value}
		entries = in.entScratch[:2]
	}
	in.keyScratch = keys
	return entries
}

// flowKey renders t's store key into the instance's reused key scratch.
// The slice is valid until the next flowKey or flowEntries call.
func (in *Instance) flowKey(t netsim.FourTuple) []byte {
	in.keyScratch = AppendFlowKey(in.keyScratch[:0], t)
	return in.keyScratch
}
