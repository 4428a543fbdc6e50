package reconfig

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/assignment"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// TestPlanInvariantsOverTraceDay holds NewPlan to its contract over the
// transitions Figure 16 produces — consecutive 10-minute windows of the
// synthetic trace day, each solved with the δ-limited assignment solver
// — and over seeded random (Current, Target, Flows, Traffic), at several
// δ with and without a TrafficCap. Every plan must
//   - be returned without error;
//   - applied wave by wave, reach Target for every VIP in it and leave
//     every other VIP as it was;
//   - keep every non-Forced wave's planned migrated fraction within δ;
//   - never, in a non-Forced wave, take an instance from within
//     TrafficCap to above it under the Eq. 4–5 charge (DESIGN.md §8);
//   - ship a Forced wave as exactly one move: one removal, or — when
//     Eq. 4–5 rejects every move — gainers only. A Forced wave is the
//     planner's explicit overshoot and is held to neither bound.
func TestPlanInvariantsOverTraceDay(t *testing.T) {
	var cases []namedState
	cases = append(cases, traceDayStates(t)...)
	cases = append(cases, randomStates(40)...)
	plans := 0
	for _, c := range cases {
		for _, delta := range []float64{0, 0.05, 0.25} {
			for _, capped := range []bool{false, true} {
				opt := Options{Delta: delta}
				if capped {
					opt.TrafficCap = c.cap
				}
				name := fmt.Sprintf("%s δ=%v cap=%v", c.name, delta, opt.TrafficCap)
				checkPlanInvariants(t, name, c.st, opt)
				plans++
			}
		}
	}
	t.Logf("%d plans checked", plans)
}

type namedState struct {
	name string
	st   State
	cap  float64 // the TrafficCap the state is sized for
}

// traceDayStates solves consecutive windows of the synthetic trace day
// as Figure 16's Yoda-limit arm does (same sizing) and turns each
// window-to-window change into a planner input, flows proportional to
// the old per-replica share.
func traceDayStates(t *testing.T) []namedState {
	t.Helper()
	tr := trace.Generate(1)
	const trafficCap, ruleCap, maxInst, repl = 12000, 2000, 600, 4
	inst := func(y int) netsim.IP { return netsim.IPv4(10, 0, byte(y>>8), byte(y)) }
	vipIP := func(id int) netsim.IP { return netsim.IPv4(10, 255, byte(id>>8), byte(id)) }
	toIPs := func(ys []int) []netsim.IP {
		out := make([]netsim.IP, len(ys))
		for i, y := range ys {
			out[i] = inst(y)
		}
		return out
	}

	var out []namedState
	var prev *assignment.Assignment
	for w := 0; w < tr.Windows; w++ {
		p := tr.ProblemAt(w, trafficCap, ruleCap, maxInst, repl)
		p.Old = prev
		p.TransientCheck = true
		p.MigrationLimit = 0.10
		a, err := assignment.SolveGreedy(p)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if prev != nil {
			st := State{
				Current: map[netsim.IP][]netsim.IP{},
				Target:  map[netsim.IP][]netsim.IP{},
				Flows:   map[netsim.IP]map[netsim.IP]float64{},
				Traffic: map[netsim.IP]float64{},
			}
			for _, v := range p.VIPs {
				vip := vipIP(v.ID)
				old := prev.ByVIP[v.ID]
				st.Current[vip] = toIPs(old)
				st.Target[vip] = toIPs(a.ByVIP[v.ID])
				st.Traffic[vip] = v.Traffic
				per := map[netsim.IP]float64{}
				for _, y := range old {
					per[inst(y)] = v.Traffic / float64(len(old))
				}
				st.Flows[vip] = per
			}
			out = append(out, namedState{fmt.Sprintf("trace window %d", w), st, trafficCap})
		}
		prev = a
	}
	return out
}

// randomStates draws n seeded planner inputs over a small fleet: VIPs on
// random instance subsets, random targets (some VIPs left out), random
// per-instance flows and traffic sized so a cap of 100 binds sometimes.
func randomStates(n int) []namedState {
	rng := rand.New(rand.NewSource(1))
	subset := func(insts []netsim.IP) []netsim.IP {
		k := 1 + rng.Intn(len(insts))
		perm := rng.Perm(len(insts))
		out := make([]netsim.IP, k)
		for i := range out {
			out[i] = insts[perm[i]]
		}
		return out
	}
	var out []namedState
	for i := 0; i < n; i++ {
		insts := make([]netsim.IP, 2+rng.Intn(7))
		for j := range insts {
			insts[j] = netsim.IPv4(10, 0, 1, byte(j+1))
		}
		st := State{
			Current: map[netsim.IP][]netsim.IP{},
			Target:  map[netsim.IP][]netsim.IP{},
			Flows:   map[netsim.IP]map[netsim.IP]float64{},
			Traffic: map[netsim.IP]float64{},
		}
		nVIPs := 1 + rng.Intn(6)
		for v := 0; v < nVIPs; v++ {
			vip := netsim.IPv4(10, 255, 0, byte(v+1))
			st.Current[vip] = subset(insts)
			if rng.Intn(4) > 0 {
				st.Target[vip] = subset(insts)
			}
			st.Traffic[vip] = float64(rng.Intn(150))
			per := map[netsim.IP]float64{}
			for _, y := range st.Current[vip] {
				per[y] = float64(rng.Intn(50))
			}
			st.Flows[vip] = per
		}
		out = append(out, namedState{fmt.Sprintf("random %d", i), st, 100})
	}
	return out
}

func checkPlanInvariants(t *testing.T, name string, st State, opt Options) {
	t.Helper()
	plan, err := NewPlan(st, opt)
	if err != nil {
		t.Fatalf("%s: NewPlan: %v", name, err)
	}
	const eps = 1e-9
	cur := map[netsim.IP][]netsim.IP{}
	for vip, insts := range st.Current {
		cur[vip] = insts
	}
	for i, w := range plan.Waves {
		if w.Forced {
			if len(w.Moves) != 1 || !oneRemovalOrGainersOnly(w.Moves[0]) {
				t.Fatalf("%s: forced wave %d is not one removal or one gainers-only move: %+v", name, i, w.Moves)
			}
		} else if opt.Delta > 0 && w.PlannedMigratedFrac > opt.Delta+eps {
			t.Fatalf("%s: wave %d plans %.4f migrated, over δ=%v", name, i, w.PlannedMigratedFrac, opt.Delta)
		}
		if opt.TrafficCap > 0 && !w.Forced {
			before, during := eq45Charge(cur, w.Moves, st.Traffic)
			for y, l := range during {
				if l > opt.TrafficCap+eps && before[y] <= opt.TrafficCap+eps {
					t.Fatalf("%s: wave %d takes %s from %.1f to %.1f, over cap %v",
						name, i, y, before[y], l, opt.TrafficCap)
				}
			}
		}
		next := map[netsim.IP][]netsim.IP{}
		for vip, insts := range cur {
			next[vip] = insts
		}
		for _, mv := range w.Moves {
			if !sameList(cur[mv.VIP], mv.From) {
				t.Fatalf("%s: wave %d moves %s from %v, but it is on %v", name, i, mv.VIP, mv.From, cur[mv.VIP])
			}
			next[mv.VIP] = mv.To
		}
		cur = next
	}
	for vip, insts := range st.Current {
		want, moved := st.Target[vip]
		if !moved {
			want = insts
		}
		if !sameSet(cur[vip], want) {
			t.Fatalf("%s: %s ends on %v, want %v", name, vip, cur[vip], want)
		}
	}
	for vip, want := range st.Target {
		if !sameSet(cur[vip], want) {
			t.Fatalf("%s: %s ends on %v, want %v", name, vip, cur[vip], want)
		}
	}
}

func oneRemovalOrGainersOnly(mv Move) bool {
	if len(mv.Losers) == 0 {
		return len(mv.Gainers) > 0
	}
	return len(mv.Losers) == 1 && len(mv.Gainers) == 0
}

// eq45Charge is the per-instance load before a wave and while its muxes
// disagree: an instance carrying a moving VIP under the old or the new
// mapping is charged the larger of the per-replica shares it can see,
// plus its steady share of every unmoved VIP.
func eq45Charge(cur map[netsim.IP][]netsim.IP, moves []Move, traffic map[netsim.IP]float64) (before, during map[netsim.IP]float64) {
	before, during = map[netsim.IP]float64{}, map[netsim.IP]float64{}
	moving := map[netsim.IP]Move{}
	for _, mv := range moves {
		moving[mv.VIP] = mv
	}
	for vip, insts := range cur {
		t := traffic[vip]
		for _, y := range insts {
			before[y] += t / float64(len(insts))
		}
		mv, ok := moving[vip]
		if !ok {
			for _, y := range insts {
				during[y] += t / float64(len(insts))
			}
			continue
		}
		for _, y := range unionIPs(mv.From, mv.To) {
			charge := 0.0
			if containsIP(mv.From, y) {
				charge = t / float64(len(mv.From))
			}
			if containsIP(mv.To, y) && t/float64(len(mv.To)) > charge {
				charge = t / float64(len(mv.To))
			}
			during[y] += charge
		}
	}
	return before, during
}
