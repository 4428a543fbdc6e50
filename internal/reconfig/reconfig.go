// Package reconfig is the live reconfiguration engine: it takes a
// current and a target VIP→instance assignment and executes the
// transition on a running cluster without breaking established
// connections (§4.5, §5.3, §7.5).
//
// The subsystem has two halves:
//
//   - The planner (plan.go) diffs the two assignments into per-VIP moves
//     and schedules them into waves such that (a) the fraction of live
//     flows migrated per wave stays under δ — the Eq. 6–7 migration
//     budget the assignment ILP reasons about analytically — and (b) the
//     transient per-instance traffic during the overlap window, when an
//     instance may carry a VIP under the old or the new mapping, stays
//     under the capacity T_y (Eq. 4–5).
//
//   - The executor (executor.go) runs each wave against the live
//     dataplane: install rules on gaining instances first, then flip the
//     L4 mappings (staggered — real muxes update non-atomically), let the
//     re-hashed flows resurrect on the gainers through the existing
//     TCPStore recovery path, wait for the losing instances' residual
//     flows to go quiet (completion-based, with a timeout backstop — not
//     a fixed delay), release the losers' migrated flow state, and only
//     then remove the losers' rules, so the per-instance rule capacity
//     R_y is actually reclaimed.
//
// The executor runs one zero-downtime rolling upgrade (§7.5) at a time.
// Per instance it drains the instance through a plan, restarts its host
// under a new configuration and re-admits it through a second plan. One
// Stats reports the whole upgrade.
package reconfig

import (
	"time"

	"repro/internal/core"
	"repro/internal/l4lb"
	"repro/internal/netsim"
	"repro/internal/rules"
)

// Options tunes both the planner and the executor. The zero value means
// "no migration limit, no transient check, default timings".
type Options struct {
	// Delta is δ, the maximum fraction of live flows allowed to migrate
	// per wave (Eq. 6–7). 0 disables the limit (everything in one wave).
	Delta float64
	// TrafficCap is T_y: the per-instance traffic the transient overlap
	// window must not exceed (Eq. 4–5). 0 disables the check. It is in
	// the same unit as State.Traffic.
	TrafficCap float64

	// DrainQuiet is how long a loser's flows for a moved VIP must have
	// seen no packet before their local state is released: once every mux
	// has flipped, packets stop arriving and the migrated flows' activity
	// timestamps freeze.
	DrainQuiet time.Duration
	// DrainTimeout caps the whole drain wait per wave, measured from the
	// mapping flip. Flows still active at the timeout are counted broken.
	DrainTimeout time.Duration
}

// withDefaults fills in the default timings.
func (o Options) withDefaults() Options {
	if o.DrainQuiet <= 0 {
		o.DrainQuiet = time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	return o
}

// State is the planner's input: where the cluster is and where it should
// go.
type State struct {
	// Current and Target map each VIP to its instance list. A VIP present
	// in Current but absent from Target keeps its current mapping (the
	// planner only moves what the caller asks to move).
	Current map[netsim.IP][]netsim.IP
	Target  map[netsim.IP][]netsim.IP
	// Flows[vip][inst] is the number of live flows of vip on inst,
	// feeding the Eq. 6–7 migration accounting. May be nil (δ then has
	// nothing to bound and every move lands in the first wave).
	Flows map[netsim.IP]map[netsim.IP]float64
	// Traffic[vip] is the VIP's traffic rate, feeding the Eq. 4–5
	// transient check (unit must match Options.TrafficCap). May be nil.
	Traffic map[netsim.IP]float64
}

// Move is one VIP's mapping change within a wave.
type Move struct {
	VIP  netsim.IP
	From []netsim.IP // mapping before the wave
	To   []netsim.IP // mapping after the wave

	Gainers []netsim.IP // To − From: rules installed before the flip
	Losers  []netsim.IP // From − To: drained after the flip, then rules removed

	// PlannedMigrated is the flow count expected to migrate (the flows on
	// Losers at planning time).
	PlannedMigrated float64
}

// Wave is a batch of moves executed together.
type Wave struct {
	Moves []Move
	// PlannedMigratedFrac is Σ PlannedMigrated over the planning-time
	// total flow count.
	PlannedMigratedFrac float64
	// Forced marks a wave whose single move alone exceeds δ: the planner
	// cannot subdivide below one instance removal, so the move ships
	// alone and the overshoot is explicit.
	Forced bool
}

// Plan is an executable reconfiguration: waves applied in order.
type Plan struct {
	Waves []Wave
	// TotalFlows is the planning-time denominator for migrated fractions.
	TotalFlows float64
}

// Stats is the observable state of the current (or last finished)
// operation, exposed through the controller. The wave, flow and rule
// counters sum over every plan of the operation.
type Stats struct {
	// Waves is how many waves have completed.
	Waves int

	// MigratedFlows counts flows present on losing instances at their
	// wave's mapping flip — the Eq. 6–7 numerator, measured (not
	// planned). BrokenFlows counts flows that were still seeing packets
	// when the drain timeout fired.
	MigratedFlows uint64
	BrokenFlows   uint64

	// ResurrectedFlows is the increase of the gaining instances' TCPStore
	// recovery counters across the run: migrated flows that actually came
	// back to life elsewhere.
	ResurrectedFlows uint64

	// MaxWaveMigratedFrac is the largest measured per-wave migrated-flow
	// fraction (≤ δ when the plan was not forced).
	MaxWaveMigratedFrac float64
	// PeakInstanceFlows is the highest live-flow count observed on any
	// involved instance during the overlap windows — the measured
	// counterpart of the Eq. 4–5 transient load.
	PeakInstanceFlows int

	// RulesRemoved counts per-VIP rule tables removed from losing
	// instances (the R_y reclamation the fire-and-forget updater never
	// did).
	RulesRemoved int

	// Instances is the fleet size a rolling upgrade targets; Upgraded
	// counts instances fully cycled (drained, restarted, re-admitted);
	// Skipped counts instances abandoned because their restart never
	// came back in time.
	Instances int
	Upgraded  int
	Skipped   int
	// Current is the instance being upgraded (0 when idle).
	Current netsim.IP
	// Err records a fatal upgrade error (the upgrade stops early).
	Err string

	// Start is virtual time when the operation began; Duration is filled
	// when it ends and Running turns false.
	Start    time.Duration
	Duration time.Duration
	Running  bool
}

// Env binds the engine to a live cluster. Instances and RulesFor must be
// non-nil; Mappings and Restart are needed by Upgrade.
type Env struct {
	Net *netsim.Network
	L4  *l4lb.LB
	// Instances returns the current fleet (slot order stable; dead
	// instances included — the engine checks liveness itself).
	Instances func() []*core.Instance
	// RulesFor returns the rule set to install on instances gaining vip.
	RulesFor func(vip netsim.IP) []rules.Rule
	// Mappings returns the owner's current VIP→instance view as fresh
	// copies.
	Mappings func() map[netsim.IP][]netsim.IP
	// Restart reboots the instance at ip under the new configuration. On
	// return the replacement must be reachable through Instances; it may
	// still take time to come alive.
	Restart func(ip netsim.IP)
	// OnMapping, when non-nil, is invoked at each mapping flip so the
	// owner (the controller) can keep its VIP→instance view in sync.
	OnMapping func(vip netsim.IP, insts []netsim.IP)
	// OnWaveStart, when non-nil, is invoked with a wave's moves before any
	// rules are installed or mappings flipped. The hybrid recovery mode
	// uses it to re-point its derivation entries at the wave's target
	// mapping, bump the epoch, and flush still-unpersisted flows — so
	// every flow the drain later releases has a store record to resurrect
	// from.
	OnWaveStart func(moves []Move)
	// OnWaveDone, when non-nil, is invoked after a wave has fully drained
	// (mappings converged, losers released). The hybrid recovery mode
	// rebuilds its derivation entries from the now-settled mappings.
	OnWaveDone func()
}

// instByIP indexes the live fleet by address.
func (e *Env) instByIP() map[netsim.IP]*core.Instance {
	out := make(map[netsim.IP]*core.Instance)
	for _, in := range e.Instances() {
		out[in.IP()] = in
	}
	return out
}
