// Package assignment implements Yoda's VIP→instance assignment problem
// (§4.4–§4.5, Figure 7): place each VIP's rules on n_v instances so that
// the number of instances used is minimized subject to
//
//	Eq. 1  traffic capacity after f_v failures:  Σ_v t_v/(n_v−f_v) ≤ T_y
//	Eq. 2  rule capacity:                        Σ_v r_v ≤ R_y
//	Eq. 3  replication:                          each VIP on exactly n_v instances
//	Eq. 4–5 transient capacity: during a non-atomic update an instance
//	        may carry a VIP's share under the old OR new mapping; the sum
//	        of worst-case shares must stay within T_y
//	Eq. 6–7 migration: connections whose VIP leaves an instance migrate
//	        (through TCPStore); the migrated fraction is capped by δ
//
// The paper solves the ILP with CPLEX at a 10% optimality gap. This
// package substitutes a first-fit-decreasing constructor plus local
// search, validated against an exhaustive optimal solver on small
// instances (see the optimality-gap test); every constraint is enforced
// by construction and re-checked by Verify.
package assignment

import (
	"errors"
	"fmt"
	"sort"
)

// VIP describes one online service's requirements.
type VIP struct {
	ID       int
	Traffic  float64 // t_v: total traffic (req/s or any consistent unit)
	Rules    int     // r_v: number of L7 rules
	Replicas int     // n_v: instances the VIP must be assigned to
	Oversub  float64 // o_v: tolerated failure fraction; f_v = floor(n_v·o_v)
}

// Failures returns f_v, the number of instance failures the VIP must
// tolerate without overloading the survivors.
func (v *VIP) Failures() int {
	f := int(float64(v.Replicas) * v.Oversub)
	if f >= v.Replicas {
		f = v.Replicas - 1
	}
	if f < 0 {
		f = 0
	}
	return f
}

// Share returns the per-instance traffic share the assignment must
// reserve: the VIP's traffic split over the replicas that survive f_v
// failures.
func (v *VIP) Share() float64 {
	den := v.Replicas - v.Failures()
	if den <= 0 {
		den = 1
	}
	return v.Traffic / float64(den)
}

// Problem is one assignment round.
type Problem struct {
	VIPs       []VIP
	MaxInst    int     // |Y|: instances available
	TrafficCap float64 // T_y
	RuleCap    int     // R_y; 0 disables the rule constraint (all-to-all baseline)

	// Old is the previous round's assignment (nil on the first round).
	// OldConns[v][y] is C_v,y^old, the connections of VIP v currently on
	// instance y; when nil, connections are assumed proportional to the
	// old traffic shares.
	Old      *Assignment
	OldConns map[int]map[int]float64

	// MigrationLimit is δ: the maximum fraction of existing connections
	// allowed to migrate in this round. 0 means unlimited (Yoda-no-limit).
	MigrationLimit float64
	// TransientCheck enables Eq. 4–5 (Yoda-limit); without it only the
	// steady-state capacity is enforced (Yoda-no-limit).
	TransientCheck bool
}

// Assignment maps VIPs to instance indices.
type Assignment struct {
	// ByVIP[vipID] lists the instance indices the VIP is assigned to.
	ByVIP map[int][]int
	// NumInstances is the size of the instance index space.
	NumInstances int
}

// NewAssignment creates an empty assignment over n instances.
func NewAssignment(n int) *Assignment {
	return &Assignment{ByVIP: make(map[int][]int), NumInstances: n}
}

// Has reports whether VIP v is assigned to instance y.
func (a *Assignment) Has(vipID, y int) bool {
	for _, i := range a.ByVIP[vipID] {
		if i == y {
			return true
		}
	}
	return false
}

// Used returns the number of instances that carry at least one VIP.
func (a *Assignment) Used() int {
	used := make(map[int]bool)
	for _, insts := range a.ByVIP {
		for _, y := range insts {
			used[y] = true
		}
	}
	return len(used)
}

// PerInstanceVIPs inverts the mapping: instance → VIP IDs.
func (a *Assignment) PerInstanceVIPs() map[int][]int {
	out := make(map[int][]int)
	for v, insts := range a.ByVIP {
		for _, y := range insts {
			out[y] = append(out[y], v)
		}
	}
	for _, vs := range out {
		sort.Ints(vs)
	}
	return out
}

// loads computes per-instance traffic shares and rule counts under a.
func loads(p *Problem, a *Assignment) (traffic map[int]float64, rls map[int]int) {
	traffic = make(map[int]float64)
	rls = make(map[int]int)
	for i := range p.VIPs {
		v := &p.VIPs[i]
		for _, y := range a.ByVIP[v.ID] {
			traffic[y] += v.Share()
			rls[y] += v.Rules
		}
	}
	return traffic, rls
}

// TransientLoad returns each instance's worst-case traffic during the
// old→new transition: for every VIP the instance carries under either
// mapping, it may see that VIP's full share (Eq. 4–5).
func TransientLoad(p *Problem, old, new *Assignment) map[int]float64 {
	out := make(map[int]float64)
	if old == nil {
		old = NewAssignment(0)
	}
	for i := range p.VIPs {
		v := &p.VIPs[i]
		seen := make(map[int]bool)
		for _, y := range old.ByVIP[v.ID] {
			if !seen[y] {
				seen[y] = true
				out[y] += v.Share()
			}
		}
		for _, y := range new.ByVIP[v.ID] {
			if !seen[y] {
				seen[y] = true
				out[y] += v.Share()
			}
		}
	}
	return out
}

// oldConns returns C_v,y^old for VIP v on instance y.
func (p *Problem) oldConnsFor(v *VIP, y int) float64 {
	if p.OldConns != nil {
		return p.OldConns[v.ID][y]
	}
	if p.Old == nil {
		return 0
	}
	insts := p.Old.ByVIP[v.ID]
	if len(insts) == 0 {
		return 0
	}
	for _, i := range insts {
		if i == y {
			return v.Traffic / float64(len(insts))
		}
	}
	return 0
}

// totalOldConns sums C^old over all VIPs and instances.
func (p *Problem) totalOldConns() float64 {
	total := 0.0
	for i := range p.VIPs {
		v := &p.VIPs[i]
		if p.OldConns != nil {
			for _, c := range p.OldConns[v.ID] {
				total += c
			}
			continue
		}
		if p.Old != nil && len(p.Old.ByVIP[v.ID]) > 0 {
			total += v.Traffic
		}
	}
	return total
}

// ActualShare returns a VIP's real per-replica traffic under an
// assignment placing it on n instances: t_v/n (the Share method instead
// gives the worst-case post-failure share the ILP provisions for).
func actualShare(v *VIP, n int) float64 {
	if n <= 0 {
		return 0
	}
	return v.Traffic / float64(n)
}

// TransientLoadActual returns each instance's real traffic during the
// old→new transition: for a VIP the instance carries under either
// mapping, the larger of the two actual per-replica shares (the L4 muxes
// split between the mappings, so an instance sees at most the bigger
// one). This is what "overloaded during transition" (Figure 16d) means
// operationally, as opposed to the provisioned worst case of Eq. 4–5.
func TransientLoadActual(p *Problem, old, new *Assignment) map[int]float64 {
	out := make(map[int]float64)
	if old == nil {
		old = NewAssignment(0)
	}
	for i := range p.VIPs {
		v := &p.VIPs[i]
		aOld := actualShare(v, len(old.ByVIP[v.ID]))
		aNew := actualShare(v, len(new.ByVIP[v.ID]))
		seen := make(map[int]float64)
		for _, y := range old.ByVIP[v.ID] {
			seen[y] = aOld
		}
		for _, y := range new.ByVIP[v.ID] {
			if cur, ok := seen[y]; !ok || aNew > cur {
				seen[y] = aNew
			}
		}
		for y, share := range seen {
			out[y] += share
		}
	}
	return out
}

// OldOnlyLoadActual returns per-instance real traffic under the old
// assignment at current traffic values.
func OldOnlyLoadActual(p *Problem) map[int]float64 {
	out := make(map[int]float64)
	if p.Old == nil {
		return out
	}
	for i := range p.VIPs {
		v := &p.VIPs[i]
		a := actualShare(v, len(p.Old.ByVIP[v.ID]))
		for _, y := range p.Old.ByVIP[v.ID] {
			out[y] += a
		}
	}
	return out
}

// OldOnlyLoad returns each instance's traffic share under the old
// assignment evaluated at current (this round's) traffic — the load an
// instance carries before any update is applied.
func OldOnlyLoad(p *Problem) map[int]float64 {
	out := make(map[int]float64)
	if p.Old == nil {
		return out
	}
	for i := range p.VIPs {
		v := &p.VIPs[i]
		for _, y := range p.Old.ByVIP[v.ID] {
			out[y] += v.Share()
		}
	}
	return out
}

// MigratedConns returns the connections that migrate under new: those on
// instances a VIP leaves (Eq. 6–7).
func MigratedConns(p *Problem, new *Assignment) float64 {
	if p.Old == nil {
		return 0
	}
	migrated := 0.0
	for i := range p.VIPs {
		v := &p.VIPs[i]
		for _, y := range p.Old.ByVIP[v.ID] {
			if !new.Has(v.ID, y) {
				migrated += p.oldConnsFor(v, y)
			}
		}
	}
	return migrated
}

// MigratedFraction returns migrated / total existing connections.
func MigratedFraction(p *Problem, new *Assignment) float64 {
	total := p.totalOldConns()
	if total == 0 {
		return 0
	}
	return MigratedConns(p, new) / total
}

// Verification errors.
var (
	ErrTrafficCap = errors.New("assignment: traffic capacity exceeded")
	ErrRuleCap    = errors.New("assignment: rule capacity exceeded")
	ErrReplicas   = errors.New("assignment: wrong replica count")
	ErrTransient  = errors.New("assignment: transient capacity exceeded")
	ErrMigration  = errors.New("assignment: migration limit exceeded")
	ErrOutOfRange = errors.New("assignment: instance index out of range")
	ErrDuplicate  = errors.New("assignment: VIP assigned twice to one instance")
	ErrInfeasible = errors.New("assignment: infeasible")
)

// Verify checks every constraint of Figure 7 against a.
func Verify(p *Problem, a *Assignment) error {
	const eps = 1e-9
	for i := range p.VIPs {
		v := &p.VIPs[i]
		insts := a.ByVIP[v.ID]
		if len(insts) != v.Replicas {
			return fmt.Errorf("%w: VIP %d on %d instances, want %d", ErrReplicas, v.ID, len(insts), v.Replicas)
		}
		seen := map[int]bool{}
		for _, y := range insts {
			if y < 0 || y >= p.MaxInst {
				return fmt.Errorf("%w: VIP %d on instance %d", ErrOutOfRange, v.ID, y)
			}
			if seen[y] {
				return fmt.Errorf("%w: VIP %d instance %d", ErrDuplicate, v.ID, y)
			}
			seen[y] = true
		}
	}
	traffic, rls := loads(p, a)
	for y, tr := range traffic {
		if tr > p.TrafficCap+eps {
			return fmt.Errorf("%w: instance %d carries %.2f > %.2f", ErrTrafficCap, y, tr, p.TrafficCap)
		}
	}
	if p.RuleCap > 0 {
		for y, r := range rls {
			if r > p.RuleCap {
				return fmt.Errorf("%w: instance %d holds %d > %d rules", ErrRuleCap, y, r, p.RuleCap)
			}
		}
	}
	if p.TransientCheck && p.Old != nil {
		// Instances already overloaded by the old mapping alone (traffic
		// grew since the last round) cannot be fixed by this round's
		// placement; the paper observes exactly this case and excludes it
		// ("the instances that were overloaded in YODA-limit were already
		// overloaded before starting the new round", §8.2). The constraint
		// therefore binds only where new placements create the overload.
		oldLoad := OldOnlyLoad(p)
		for y, tr := range TransientLoad(p, p.Old, a) {
			if tr > p.TrafficCap+eps && oldLoad[y] <= p.TrafficCap+eps {
				return fmt.Errorf("%w: instance %d transient %.2f > %.2f", ErrTransient, y, tr, p.TrafficCap)
			}
		}
	}
	if p.MigrationLimit > 0 && p.Old != nil {
		if frac := MigratedFraction(p, a); frac > p.MigrationLimit+eps {
			return fmt.Errorf("%w: %.3f > %.3f", ErrMigration, frac, p.MigrationLimit)
		}
	}
	return nil
}
