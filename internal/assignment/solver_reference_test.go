package assignment

// SolveExhaustive finds a provably minimal assignment by branch and
// bound. Only usable for tiny instances (it explores the full placement
// tree); TestGreedyOptimalityGap measures the greedy solver against it.
func SolveExhaustive(p *Problem) (*Assignment, error) {
	best := (*Assignment)(nil)
	bestUsed := p.MaxInst + 1

	var rec func(vipIdx int, s *solverState)
	rec = func(vipIdx int, s *solverState) {
		if s.openCount >= bestUsed {
			return // bound
		}
		if vipIdx == len(p.VIPs) {
			if Verify(p, s.a) == nil && s.openCount < bestUsed {
				best = s.a.Clone()
				bestUsed = s.openCount
			}
			return
		}
		v := &p.VIPs[vipIdx]
		// Enumerate instance subsets of size n_v via recursion.
		var choose func(start, need int)
		choose = func(start, need int) {
			if need == 0 {
				rec(vipIdx+1, s)
				return
			}
			for y := start; y <= p.MaxInst-need; y++ {
				if !s.fits(v, y) {
					continue
				}
				wasOpen := s.open[y]
				s.place(v, y)
				choose(y+1, need-1)
				// Undo.
				insts := s.a.ByVIP[v.ID]
				s.a.ByVIP[v.ID] = insts[:len(insts)-1]
				s.traffic[y] -= v.Share()
				s.rls[y] -= v.Rules
				if p.TransientCheck && p.Old != nil && !p.Old.Has(v.ID, y) {
					s.transient[y] -= v.Share()
				}
				if !wasOpen {
					s.open[y] = false
					s.openCount--
				}
			}
		}
		choose(0, v.Replicas)
	}
	rec(0, newSolverState(p))
	if best == nil {
		return nil, ErrInfeasible
	}
	return best, nil
}
