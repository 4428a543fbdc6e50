package core

// PendingQueues and SNATPortsInUse let the external kill sweep check that
// no recovery queue and no SNAT port outlives the flows that needed them.
func (in *Instance) PendingQueues() int  { return len(in.pending) }
func (in *Instance) SNATPortsInUse() int { return len(in.snatInUse) }
