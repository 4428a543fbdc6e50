//go:build go1.24

package core

import (
	"math/bits"
	"weak"

	"repro/internal/netsim"
)

// PendingQueues and SNATPortsInUse let the external kill sweep check that
// no recovery queue and no SNAT port outlives the flows that needed them.
func (in *Instance) PendingQueues() int { return len(in.pending) }
func (in *Instance) SNATPortsInUse() (n int) {
	for _, w := range in.snatInUse {
		n += bits.OnesCount64(w)
	}
	return n
}

// FlowInfo is a snapshot of one live flow, for the hybrid tests: the
// differential oracle compares these against the stateless derivation.
type FlowInfo struct {
	Client, VIP, Server, SNAT netsim.HostPort
	C, S, Delta               uint32
	Persisted                 bool
}

// SnapshotFlows returns a snapshot of every live flow.
func (in *Instance) SnapshotFlows() []FlowInfo {
	var out []FlowInfo
	in.flows.forEach(func(f *flow) {
		out = append(out, FlowInfo{
			Client: f.client, VIP: f.vip, Server: f.server, SNAT: f.snat,
			C: f.c, S: f.s, Delta: f.delta,
			Persisted: f.persisted,
		})
	})
	return out
}

// HeldObject is a flow or a pending queue an instance holds, for
// TestKilledInstanceHoldsNothing: what it is ("idle", "dialing",
// "lingering" or "queue"), how many timers it holds armed, and whether
// the collector has yet to free it (through a weak pointer, which holds
// nothing).
type HeldObject struct {
	Kind   string
	Timers int
	Live   func() bool
}

// HeldObjects lists the instance's flows, in slot order, its pending
// queues and its claims.
func (in *Instance) HeldObjects() []HeldObject {
	var out []HeldObject
	held := func(kind string, live func() bool, timers ...netsim.Timer) {
		o := HeldObject{Kind: kind, Live: live}
		for _, t := range timers {
			if t.Active() {
				o.Timers++
			}
		}
		out = append(out, o)
	}
	in.flows.forEach(func(f *flow) {
		kind := "idle"
		switch {
		case f.state == stateDialing:
			kind = "dialing"
		case f.lingerTimer.Active():
			kind = "lingering"
		}
		w := weak.Make(f)
		held(kind, func() bool { return w.Value() != nil }, f.idleTimer, f.dialTimer, f.lingerTimer)
	})
	for _, q := range in.pending {
		w := weak.Make(q)
		held("queue", func() bool { return w.Value() != nil }, q.expire)
	}
	for _, q := range in.claims {
		w := weak.Make(q)
		held("claim", func() bool { return w.Value() != nil }, q.expire)
	}
	return out
}

// ISNToClient is the ISN every instance answers a SYN from client to vip
// with.
func ISNToClient(client, vip netsim.HostPort) uint32 { return isnHash(client, vip) }
