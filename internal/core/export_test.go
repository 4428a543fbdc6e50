package core

import (
	"math/bits"

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
