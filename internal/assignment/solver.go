package assignment

import (
	"fmt"
	"math"
	"sort"
)

// AllToAllInstanceCount returns the instance count the all-to-all
// baseline needs: the total traffic divided by per-instance capacity
// (§8.2 — the scheme that uses the fewest instances but holds every rule
// everywhere).
func AllToAllInstanceCount(p *Problem) int {
	total := 0.0
	for i := range p.VIPs {
		total += p.VIPs[i].Traffic
	}
	n := int(math.Ceil(total / p.TrafficCap))
	if n < 1 {
		n = 1
	}
	return n
}

// solverState tracks per-instance headroom during construction.
type solverState struct {
	p         *Problem
	a         *Assignment
	traffic   []float64
	rls       []int
	transient []float64 // worst-case transition load (Eq. 4–5)
	open      []bool
	openCount int
	// migration budget (Eq. 6–7)
	migrated   float64
	migrantCap float64
	totalConns float64
}

func newSolverState(p *Problem) *solverState {
	s := &solverState{
		p:         p,
		a:         NewAssignment(p.MaxInst),
		traffic:   make([]float64, p.MaxInst),
		rls:       make([]int, p.MaxInst),
		transient: make([]float64, p.MaxInst),
		open:      make([]bool, p.MaxInst),
	}
	s.totalConns = p.totalOldConns()
	if p.MigrationLimit > 0 {
		s.migrantCap = p.MigrationLimit * s.totalConns
	} else {
		s.migrantCap = math.Inf(1)
	}
	if p.TransientCheck && p.Old != nil {
		// Seed transient load with each instance's old shares; placing a
		// VIP on a new instance adds its share there too.
		for i := range p.VIPs {
			v := &p.VIPs[i]
			for _, y := range p.Old.ByVIP[v.ID] {
				if y >= 0 && y < p.MaxInst {
					s.transient[y] += v.Share()
				}
			}
		}
	}
	return s
}

// fits reports whether VIP v can be placed on instance y.
func (s *solverState) fits(v *VIP, y int) bool {
	const eps = 1e-9
	if s.a.Has(v.ID, y) {
		return false
	}
	if s.traffic[y]+v.Share() > s.p.TrafficCap+eps {
		return false
	}
	if s.p.RuleCap > 0 && s.rls[y]+v.Rules > s.p.RuleCap {
		return false
	}
	if s.p.TransientCheck && s.p.Old != nil && !s.p.Old.Has(v.ID, y) {
		// Staying on an old home adds no transient load (it is already in
		// the seeded old-mapping share); only genuinely new placements are
		// constrained by Eq. 4–5.
		if s.transient[y]+v.Share() > s.p.TrafficCap+eps {
			return false
		}
	}
	return true
}

func (s *solverState) place(v *VIP, y int) {
	s.a.ByVIP[v.ID] = append(s.a.ByVIP[v.ID], y)
	s.traffic[y] += v.Share()
	s.rls[y] += v.Rules
	if s.p.TransientCheck && s.p.Old != nil && !s.p.Old.Has(v.ID, y) {
		s.transient[y] += v.Share()
	}
	if !s.open[y] {
		s.open[y] = true
		s.openCount++
	}
}

// SolveGreedy computes an assignment with first-fit decreasing plus a
// stickiness preference: each VIP tries to stay on its old instances
// first (zero migration), then on already-open instances with the least
// remaining headroom (tight packing), and only then opens new instances.
// When the migration budget δ makes the problem infeasible, the budget
// is relaxed in 10% steps, exactly as the paper's operators did (§8.2).
func SolveGreedy(p *Problem) (*Assignment, error) {
	limit := p.MigrationLimit
	for {
		a, err := solveGreedyOnce(p, limit)
		if err == nil {
			return a, nil
		}
		if limit <= 0 || limit >= 1 {
			return nil, err
		}
		limit += 0.10 // relax δ and retry
		if limit > 1 {
			limit = 0 // unlimited
		}
	}
}

func solveGreedyOnce(p *Problem, migrationLimit float64) (*Assignment, error) {
	q := *p
	q.MigrationLimit = migrationLimit
	s := newSolverState(&q)

	// FFD over per-replica traffic share: heavy VIPs first.
	order := make([]int, len(q.VIPs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return q.VIPs[order[a]].Share() > q.VIPs[order[b]].Share()
	})

	for _, idx := range order {
		v := &q.VIPs[idx]
		if v.Replicas > q.MaxInst {
			return nil, fmt.Errorf("%w: VIP %d needs %d replicas, only %d instances", ErrInfeasible, v.ID, v.Replicas, q.MaxInst)
		}
		if err := s.placeVIP(v); err != nil {
			return nil, err
		}
	}
	if q.MigrationLimit > 0 && q.Old != nil {
		if MigratedFraction(&q, s.a) > q.MigrationLimit+1e-9 {
			return nil, fmt.Errorf("%w (migration budget)", ErrInfeasible)
		}
	}
	localSearch(&q, s)
	// The constructor and local search maintain the constraints, but the
	// returned assignment is re-verified end to end as a safety net.
	if err := Verify(&q, s.a); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return s.a, nil
}

// placeVIP chooses n_v instances for v.
func (s *solverState) placeVIP(v *VIP) error {
	need := v.Replicas
	// Pass 1: old homes (free migration-wise).
	if s.p.Old != nil {
		for _, y := range s.p.Old.ByVIP[v.ID] {
			if need == 0 {
				break
			}
			if y >= 0 && y < s.p.MaxInst && s.fits(v, y) {
				s.place(v, y)
				need--
			}
		}
	}
	// The connections on old homes we do NOT keep will migrate; account
	// for the cheapest-feasible choice by accruing migration when we skip
	// an old home.
	if s.p.Old != nil {
		for _, y := range s.p.Old.ByVIP[v.ID] {
			if !s.a.Has(v.ID, y) {
				s.migrated += s.p.oldConnsFor(v, y)
			}
		}
		if s.migrated > s.migrantCap {
			return fmt.Errorf("%w (migration budget)", ErrInfeasible)
		}
	}
	// Pass 2: open instances, best-fit (least headroom that still fits).
	for need > 0 {
		best, bestHead := -1, math.Inf(1)
		for y := 0; y < s.p.MaxInst; y++ {
			if !s.open[y] || !s.fits(v, y) {
				continue
			}
			head := s.p.TrafficCap - s.traffic[y]
			if head < bestHead {
				best, bestHead = y, head
			}
		}
		if best < 0 {
			break
		}
		s.place(v, best)
		need--
	}
	// Pass 3: open fresh instances.
	for need > 0 {
		opened := false
		for y := 0; y < s.p.MaxInst; y++ {
			if s.open[y] {
				continue
			}
			if s.fits(v, y) {
				s.place(v, y)
				need--
				opened = true
				break
			}
		}
		if !opened {
			return fmt.Errorf("%w: VIP %d cannot get %d more replicas", ErrInfeasible, v.ID, need)
		}
	}
	return nil
}

// localSearch tries to drain lightly-loaded instances by relocating their
// VIP replicas onto other open instances, shrinking the objective.
func localSearch(p *Problem, s *solverState) {
	perInst := s.a.PerInstanceVIPs()
	// Visit instances lightest-first, a tie to the lower index, so the
	// result does not depend on map order.
	var order []int
	for y := 0; y < p.MaxInst; y++ {
		if len(perInst[y]) > 0 {
			order = append(order, y)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return s.traffic[order[a]] < s.traffic[order[b]] })

	vipByID := make(map[int]*VIP, len(p.VIPs))
	for i := range p.VIPs {
		vipByID[p.VIPs[i].ID] = &p.VIPs[i]
	}

	for _, y := range order {
		vips := perInst[y]
		// Plan moves for every replica on y; abort if any cannot move.
		type move struct {
			v  *VIP
			to int
		}
		var plan []move
		feasible := true
		// Simulate removals so multiple VIPs moving to one target respect caps.
		trialTraffic := append([]float64(nil), s.traffic...)
		trialRules := append([]int(nil), s.rls...)
		trialTransient := append([]float64(nil), s.transient...)
		trialMigrated := s.migrated
		for _, vid := range vips {
			v := vipByID[vid]
			moved := false
			for to := 0; to < p.MaxInst && !moved; to++ {
				if to == y || !s.open[to] || s.a.Has(vid, to) {
					continue
				}
				if trialTraffic[to]+v.Share() > p.TrafficCap+1e-9 {
					continue
				}
				if p.RuleCap > 0 && trialRules[to]+v.Rules > p.RuleCap {
					continue
				}
				if p.TransientCheck && p.Old != nil && !p.Old.Has(vid, to) {
					if trialTransient[to]+v.Share() > p.TrafficCap+1e-9 {
						continue
					}
				}
				addMig := 0.0
				if p.Old != nil && p.Old.Has(vid, y) && !s.a.Has(vid, y) {
					addMig = 0
				} else if p.Old != nil && p.Old.Has(vid, y) {
					addMig = p.oldConnsFor(v, y)
				}
				if trialMigrated+addMig > s.migrantCap {
					continue
				}
				trialTraffic[to] += v.Share()
				trialRules[to] += v.Rules
				if p.TransientCheck && p.Old != nil && !p.Old.Has(vid, to) {
					trialTransient[to] += v.Share()
				}
				trialMigrated += addMig
				plan = append(plan, move{v: v, to: to})
				moved = true
			}
			if !moved {
				feasible = false
				break
			}
		}
		if !feasible || len(plan) == 0 {
			continue
		}
		// Apply the plan: replace y with the target in each VIP's list.
		for _, m := range plan {
			insts := s.a.ByVIP[m.v.ID]
			for i, inst := range insts {
				if inst == y {
					insts[i] = m.to
					break
				}
			}
			s.traffic[m.to] += m.v.Share()
			s.rls[m.to] += m.v.Rules
			s.traffic[y] -= m.v.Share()
			s.rls[y] -= m.v.Rules
			if p.TransientCheck && p.Old != nil && !p.Old.Has(m.v.ID, m.to) {
				s.transient[m.to] += m.v.Share()
			}
			if p.Old != nil && p.Old.Has(m.v.ID, y) {
				s.migrated += p.oldConnsFor(m.v, y)
			}
		}
		s.open[y] = false
		s.openCount--
		perInst = s.a.PerInstanceVIPs()
	}
}
