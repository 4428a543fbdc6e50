package experiments

import (
	"fmt"
	"sort"

	"repro/internal/assignment"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// The §8.2 sizing of the 24-hour assignment simulation.
const (
	// fig16TrafficCap is T_y, req/s per instance: the 12K req/s
	// saturation point.
	fig16TrafficCap = 12000
	// fig16RuleCap is R_y: 2K rules for a 5 ms lookup-latency target.
	fig16RuleCap = 2000
	// fig16MaxInst is the fleet ceiling.
	fig16MaxInst = 600
	// fig16Repl is the shared-service redundancy multiplier (4×).
	fig16Repl = 4
	// fig16Delta is δ, the Yoda-limit arm's migration budget.
	fig16Delta = 0.10
)

// Fig16Round is one 10-minute assignment round's metrics.
type Fig16Round struct {
	Window int

	AllToAllInstances int
	NoLimitInstances  int
	LimitInstances    int

	// MedianRulesFrac is the median per-instance rule count under
	// Yoda-limit as a fraction of the all-to-all scheme's (which holds
	// every rule on every instance) — Figure 16(b).
	MedianRulesFrac float64

	// Overloaded fractions of instances whose transient load exceeds
	// capacity during the update — Figure 16(d).
	NoLimitOverloadedFrac float64
	LimitOverloadedFrac   float64

	// Migrated connection fractions — Figure 16(e).
	NoLimitMigratedFrac float64
	LimitMigratedFrac   float64
}

// Fig16Result reproduces Figure 16(b)–(e).
type Fig16Result struct {
	Rounds []Fig16Round

	// Aggregates across rounds.
	MedianRulesFrac                float64 // paper: median 1% of all-to-all
	MeanInstanceOverheadVsAllToAll float64 // paper: avg 27% more than all-to-all
	LimitVsNoLimitInstances        float64 // paper: median +1.3%
	MedianNoLimitOverloaded        float64 // paper: median 5.3%
	MedianLimitOverloaded          float64 // paper: ~0
	MedianNoLimitMigrated          float64 // paper: median 44.9%
	MedianLimitMigrated            float64 // paper: median 8.3%
}

// RunFig16 replays the trace day of seed, re-solving the assignment every
// window for the all-to-all baseline, Yoda-no-limit and Yoda-limit.
func RunFig16(seed int64) *Fig16Result {
	tr := trace.Generate(seed)
	res := &Fig16Result{}

	var prevNoLimit, prevLimit *assignment.Assignment
	rulesFracH := metrics.NewHistogram()
	instOverheadH := metrics.NewHistogram()
	limitVsNoLimitH := metrics.NewHistogram()
	nlOverH := metrics.NewHistogram()
	lOverH := metrics.NewHistogram()
	nlMigH := metrics.NewHistogram()
	lMigH := metrics.NewHistogram()

	for w := 0; w < tr.Windows; w++ {
		round := Fig16Round{Window: w}
		base := tr.ProblemAt(w, fig16TrafficCap, fig16RuleCap, fig16MaxInst, fig16Repl)
		round.AllToAllInstances = assignment.AllToAllInstanceCount(base)

		// Yoda-no-limit: fresh solve, no stickiness, no Eq.4-7. The paper's
		// ILP re-optimizes from scratch each round, so connections shuffle.
		noLimitProb := *base
		noLimitProb.Old = nil
		noLimit, errNL := assignment.SolveGreedy(&noLimitProb)
		if errNL != nil {
			continue // infeasible window; skip (never happens with default sizing)
		}
		// Yoda-limit: stick to the previous assignment, Eq.4-7 enforced.
		limitProb := *base
		limitProb.Old = prevLimit
		limitProb.TransientCheck = true
		limitProb.MigrationLimit = fig16Delta
		limit, errL := assignment.SolveGreedy(&limitProb)
		if errL != nil {
			continue
		}

		round.NoLimitInstances = noLimit.Used()
		round.LimitInstances = limit.Used()

		// Figure 16(b): median rules per instance vs all-to-all (which
		// stores the full rule set on every instance).
		totalRules := 0
		for _, v := range base.VIPs {
			totalRules += v.Rules
		}
		round.MedianRulesFrac = medianRulesFraction(base, limit, totalRules)

		// Figure 16(d): transient overload during the old->new switch.
		if w > 0 {
			round.NoLimitOverloadedFrac = overloadedFrac(base, prevNoLimit, noLimit, fig16TrafficCap)
			round.LimitOverloadedFrac = overloadedFrac(base, prevLimit, limit, fig16TrafficCap)

			// Figure 16(e): migrated connections.
			nlProb := *base
			nlProb.Old = prevNoLimit
			round.NoLimitMigratedFrac = assignment.MigratedFraction(&nlProb, noLimit)
			lProb := *base
			lProb.Old = prevLimit
			round.LimitMigratedFrac = assignment.MigratedFraction(&lProb, limit)

			nlOverH.Add(round.NoLimitOverloadedFrac)
			lOverH.Add(round.LimitOverloadedFrac)
			nlMigH.Add(round.NoLimitMigratedFrac)
			lMigH.Add(round.LimitMigratedFrac)
		}
		rulesFracH.Add(round.MedianRulesFrac)
		instOverheadH.Add(float64(round.NoLimitInstances-round.AllToAllInstances) / float64(round.AllToAllInstances))
		limitVsNoLimitH.Add(float64(round.LimitInstances-round.NoLimitInstances) / float64(round.NoLimitInstances))

		prevNoLimit, prevLimit = noLimit, limit
		res.Rounds = append(res.Rounds, round)
	}

	res.MedianRulesFrac = rulesFracH.Median()
	res.MeanInstanceOverheadVsAllToAll = instOverheadH.Mean()
	res.LimitVsNoLimitInstances = limitVsNoLimitH.Median()
	res.MedianNoLimitOverloaded = nlOverH.Median()
	res.MedianLimitOverloaded = lOverH.Median()
	res.MedianNoLimitMigrated = nlMigH.Median()
	res.MedianLimitMigrated = lMigH.Median()
	return res
}

// medianRulesFraction computes the median per-instance rule count under a
// divided by the all-to-all per-instance rule count (= all rules).
func medianRulesFraction(p *assignment.Problem, a *assignment.Assignment, totalRules int) float64 {
	perInst := map[int]int{}
	for i := range p.VIPs {
		v := &p.VIPs[i]
		for _, y := range a.ByVIP[v.ID] {
			perInst[y] += v.Rules
		}
	}
	if len(perInst) == 0 || totalRules == 0 {
		return 0
	}
	counts := make([]int, 0, len(perInst))
	for _, c := range perInst {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	return float64(counts[len(counts)/2]) / float64(totalRules)
}

// overloadedFrac returns the fraction of involved instances whose real
// transient traffic exceeds capacity, excluding instances that were
// already overloaded before the round (as the paper does). Real traffic
// (t_v/n_v per replica) is used rather than the ILP's worst-case shares:
// the figure reports operational overload, not provisioning.
func overloadedFrac(p *assignment.Problem, old, new *assignment.Assignment, cap float64) float64 {
	if old == nil {
		return 0
	}
	q := *p
	q.Old = old
	oldLoad := assignment.OldOnlyLoadActual(&q)
	tl := assignment.TransientLoadActual(&q, old, new)
	over, total := 0, 0
	for y, l := range tl {
		total++
		if l > cap+1e-9 && oldLoad[y] <= cap+1e-9 {
			over++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(over) / float64(total)
}

// String prints the figure's four panels as summary lines plus a sampled
// per-round table.
func (r *Fig16Result) String() string {
	rows := [][]string{}
	step := len(r.Rounds) / 12
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.Rounds); i += step {
		rd := r.Rounds[i]
		rows = append(rows, []string{
			fmt.Sprintf("%d", rd.Window),
			fmt.Sprintf("%d", rd.AllToAllInstances),
			fmt.Sprintf("%d", rd.NoLimitInstances),
			fmt.Sprintf("%d", rd.LimitInstances),
			fmtPct(rd.MedianRulesFrac),
			fmtPct(rd.NoLimitOverloadedFrac),
			fmtPct(rd.LimitOverloadedFrac),
			fmtPct(rd.NoLimitMigratedFrac),
			fmtPct(rd.LimitMigratedFrac),
		})
	}
	s := "Figure 16 — 24h assignment simulation (10-minute rounds)\n"
	s += table([]string{"round", "all-to-all", "no-limit", "limit", "rules%", "over(NL)", "over(L)", "migr(NL)", "migr(L)"}, rows)
	s += fmt.Sprintf("16(b) median rules per instance vs all-to-all: %s (paper: 0.5-3.7%%, median 1%%)\n", fmtPct(r.MedianRulesFrac))
	s += fmt.Sprintf("16(c) instances vs all-to-all: +%s mean (paper: +4.6-73%%, avg +27%%); limit vs no-limit: %+.1f%% median (paper: median +1.3%%)\n",
		fmtPct(r.MeanInstanceOverheadVsAllToAll), r.LimitVsNoLimitInstances*100)
	s += fmt.Sprintf("16(d) transient overload: no-limit median %s (paper: 5.3%%), limit median %s (paper: ~0)\n",
		fmtPct(r.MedianNoLimitOverloaded), fmtPct(r.MedianLimitOverloaded))
	s += fmt.Sprintf("16(e) flows migrated: no-limit median %s (paper: 44.9%%), limit median %s (paper: 8.3%%)\n",
		fmtPct(r.MedianNoLimitMigrated), fmtPct(r.MedianLimitMigrated))
	return s
}
