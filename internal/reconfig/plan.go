package reconfig

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/netsim"
)

// ErrNoProgress is returned when the planner cannot schedule the
// remaining work (it should be unreachable: forced waves guarantee
// progress; the error guards against planner bugs, not inputs).
var ErrNoProgress = errors.New("reconfig: planner made no progress")

// NewPlan diffs State.Current against State.Target and packs the
// resulting per-VIP moves into waves respecting δ (Eq. 6–7) and the
// transient capacity T_y (Eq. 4–5).
//
// Within a wave a VIP's mapping changes once: gainers are added and the
// affordable subset of losers removed together (the executor installs
// rules on gainers before flipping). Migration granularity is one loser
// instance: removing instance y from VIP v's mapping migrates exactly
// v's flows on y, so the planner spreads loser removals across waves to
// fit each wave under δ × total flows. A single removal larger than the
// whole budget cannot be subdivided; it ships alone in a wave marked
// Forced.
func NewPlan(st State, opt Options) (*Plan, error) {
	opt = opt.withDefaults()

	// Work list: VIPs whose target differs from their current mapping.
	var vips []netsim.IP
	for vip, tgt := range st.Target {
		if !sameSet(st.Current[vip], tgt) {
			vips = append(vips, vip)
		}
	}
	sort.Slice(vips, func(i, j int) bool { return vips[i] < vips[j] })

	plan := &Plan{TotalFlows: totalFlows(st.Flows)}
	if len(vips) == 0 {
		return plan, nil
	}

	// Working copy of the mappings, advanced wave by wave.
	cur := make(map[netsim.IP][]netsim.IP, len(st.Current))
	for vip, insts := range st.Current {
		cur[vip] = append([]netsim.IP(nil), insts...)
	}

	budgetPerWave := -1.0 // unlimited
	if opt.Delta > 0 && plan.TotalFlows > 0 {
		budgetPerWave = opt.Delta * plan.TotalFlows
	}

	const maxWaves = 10000
	for len(plan.Waves) < maxWaves {
		pending := pendingVIPs(vips, cur, st.Target)
		if len(pending) == 0 {
			return plan, nil
		}
		wave := Wave{}
		budget := budgetPerWave
		next := make(map[netsim.IP][]netsim.IP, len(cur))
		for vip, insts := range cur {
			next[vip] = insts
		}

		for _, vip := range pending {
			mv, spent, ok := proposeMove(vip, cur, st, budget)
			if !ok {
				continue
			}
			if !transientOK(append(wave.Moves[:len(wave.Moves):len(wave.Moves)], mv), cur, st, opt) {
				// The full move breaches Eq. 4–5 this wave. Retry with the
				// gainers alone (adding replicas lowers per-replica shares
				// next wave); if even that does not fit, defer the VIP.
				if len(mv.Losers) > 0 && len(mv.Gainers) > 0 {
					gmv := gainersOnlyMove(vip, cur[vip], mv.Gainers)
					if transientOK(append(wave.Moves[:len(wave.Moves):len(wave.Moves)], gmv), cur, st, opt) {
						wave.Moves = append(wave.Moves, gmv)
						next[vip] = gmv.To
					}
				}
				continue
			}
			if budget >= 0 {
				budget -= spent
			}
			wave.Moves = append(wave.Moves, mv)
			next[vip] = mv.To
		}

		if len(wave.Moves) == 0 {
			// Nothing fit: δ is smaller than the cheapest single removal,
			// or the transient check rejects every order. Force the
			// cheapest pending action so the plan always completes; the
			// wave is marked so the overshoot is visible in the stats.
			mv, ok := cheapestForcedMove(pending, cur, st)
			if !ok {
				return plan, fmt.Errorf("%w: %d VIPs unresolved", ErrNoProgress, len(pending))
			}
			wave.Forced = true
			wave.Moves = append(wave.Moves, mv)
			next[mv.VIP] = mv.To
		}

		for _, mv := range wave.Moves {
			wave.PlannedMigratedFrac += mv.PlannedMigrated
		}
		if plan.TotalFlows > 0 {
			wave.PlannedMigratedFrac /= plan.TotalFlows
		} else {
			wave.PlannedMigratedFrac = 0
		}
		plan.Waves = append(plan.Waves, wave)
		cur = next
	}
	return plan, fmt.Errorf("%w: wave limit hit", ErrNoProgress)
}

// proposeMove builds the largest affordable move for vip this wave: all
// gainers plus as many losers (cheapest flows first) as fit in budget.
// budget < 0 means unlimited. ok is false when nothing changes.
func proposeMove(vip netsim.IP, cur map[netsim.IP][]netsim.IP, st State, budget float64) (mv Move, spent float64, ok bool) {
	from := cur[vip]
	tgt := st.Target[vip]
	gainers := diffIPs(tgt, from)
	losers := diffIPs(from, tgt)
	sort.Slice(losers, func(i, j int) bool {
		fi, fj := flowsOn(st, vip, losers[i]), flowsOn(st, vip, losers[j])
		if fi != fj {
			return fi < fj
		}
		return losers[i] < losers[j]
	})
	var removed []netsim.IP
	for _, l := range losers {
		fl := flowsOn(st, vip, l)
		if budget >= 0 && fl > budget-spent {
			continue
		}
		removed = append(removed, l)
		spent += fl
	}
	to := diffIPs(unionIPs(from, gainers), removed)
	if sameList(to, from) {
		return Move{}, 0, false
	}
	return Move{
		VIP: vip, From: from, To: to,
		Gainers: gainers, Losers: removed,
		PlannedMigrated: spent,
	}, spent, true
}

// gainersOnlyMove adds gainers without removing anyone.
func gainersOnlyMove(vip netsim.IP, from, gainers []netsim.IP) Move {
	return Move{VIP: vip, From: from, To: unionIPs(from, gainers), Gainers: gainers}
}

// cheapestForcedMove picks the single pending action with the smallest
// migration cost: for each pending VIP either "add all gainers" (cost 0)
// or "remove the cheapest single loser".
func cheapestForcedMove(pending []netsim.IP, cur map[netsim.IP][]netsim.IP, st State) (Move, bool) {
	best := Move{}
	bestCost := -1.0
	for _, vip := range pending {
		from := cur[vip]
		tgt := st.Target[vip]
		if gainers := diffIPs(tgt, from); len(gainers) > 0 {
			// Adding replicas migrates nothing; always the cheapest start.
			return gainersOnlyMove(vip, from, gainers), true
		}
		for _, l := range diffIPs(from, tgt) {
			fl := flowsOn(st, vip, l)
			if bestCost < 0 || fl < bestCost {
				bestCost = fl
				best = Move{
					VIP: vip, From: from, To: diffIPs(from, []netsim.IP{l}),
					Losers: []netsim.IP{l}, PlannedMigrated: fl,
				}
			}
		}
	}
	return best, bestCost >= 0
}

// transientOK evaluates Eq. 4–5 for a wave: every instance that carries a
// moving VIP under the old or the new mapping may transiently see the
// larger of the two per-replica shares while the muxes disagree; summed
// with its steady share of unmoved VIPs, the total must stay within
// TrafficCap. Instances already above capacity before the wave are
// grandfathered (§8.2: refusing the move cannot fix them).
func transientOK(moves []Move, cur map[netsim.IP][]netsim.IP, st State, opt Options) bool {
	if opt.TrafficCap <= 0 || st.Traffic == nil {
		return true
	}
	moving := make(map[netsim.IP]*Move, len(moves))
	for i := range moves {
		moving[moves[i].VIP] = &moves[i]
	}
	transient := make(map[netsim.IP]float64)
	steady := make(map[netsim.IP]float64)
	for vip, insts := range cur {
		t := st.Traffic[vip]
		if t == 0 {
			continue
		}
		if mv, ok := moving[vip]; ok {
			oldShare := share(t, len(mv.From))
			newShare := share(t, len(mv.To))
			for _, y := range unionIPs(mv.From, mv.To) {
				add := newShare
				if containsIP(mv.From, y) && oldShare > add {
					add = oldShare
				}
				if !containsIP(mv.To, y) {
					add = oldShare
				}
				transient[y] += add
				if containsIP(mv.From, y) {
					steady[y] += oldShare
				}
			}
			continue
		}
		s := share(t, len(insts))
		for _, y := range insts {
			transient[y] += s
			steady[y] += s
		}
	}
	const eps = 1e-9
	for y, l := range transient {
		if l > opt.TrafficCap+eps && steady[y] <= opt.TrafficCap+eps {
			return false
		}
	}
	return true
}

func share(traffic float64, replicas int) float64 {
	if replicas <= 0 {
		return 0
	}
	return traffic / float64(replicas)
}

func flowsOn(st State, vip, inst netsim.IP) float64 {
	if st.Flows == nil {
		return 0
	}
	return st.Flows[vip][inst]
}

func totalFlows(flows map[netsim.IP]map[netsim.IP]float64) float64 {
	total := 0.0
	for _, per := range flows {
		for _, n := range per {
			total += n
		}
	}
	return total
}

func pendingVIPs(vips []netsim.IP, cur, tgt map[netsim.IP][]netsim.IP) []netsim.IP {
	var out []netsim.IP
	for _, vip := range vips {
		if !sameSet(cur[vip], tgt[vip]) {
			out = append(out, vip)
		}
	}
	return out
}

// --- small set helpers over instance lists (kept order-stable) ---

func containsIP(list []netsim.IP, ip netsim.IP) bool {
	for _, x := range list {
		if x == ip {
			return true
		}
	}
	return false
}

// diffIPs returns a with every member of b removed, preserving a's order.
func diffIPs(a, b []netsim.IP) []netsim.IP {
	var out []netsim.IP
	for _, x := range a {
		if !containsIP(b, x) {
			out = append(out, x)
		}
	}
	return out
}

// unionIPs returns a followed by the members of b not already in a.
func unionIPs(a, b []netsim.IP) []netsim.IP {
	out := append([]netsim.IP(nil), a...)
	for _, x := range b {
		if !containsIP(out, x) {
			out = append(out, x)
		}
	}
	return out
}

func sameList(a, b []netsim.IP) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameSet(a, b []netsim.IP) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !containsIP(b, x) {
			return false
		}
	}
	return true
}
