package reconfig

import (
	"testing"

	"repro/internal/netsim"
)

func ip(n byte) netsim.IP { return netsim.IPv4(10, 0, 1, n) }

// TestPlanDeltaSplitsLoserRemovals: removing two instances that each hold
// 25% of the flows under δ=25% must take two waves, one removal each.
func TestPlanDeltaSplitsLoserRemovals(t *testing.T) {
	v := netsim.IPv4(10, 255, 0, 1)
	st := State{
		Current: map[netsim.IP][]netsim.IP{v: {ip(1), ip(2), ip(3), ip(4)}},
		Target:  map[netsim.IP][]netsim.IP{v: {ip(1), ip(2)}},
		Flows: map[netsim.IP]map[netsim.IP]float64{
			v: {ip(1): 25, ip(2): 25, ip(3): 25, ip(4): 25},
		},
	}
	plan, err := NewPlan(st, Options{Delta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Waves) != 2 {
		t.Fatalf("waves = %d, want 2: %+v", len(plan.Waves), plan.Waves)
	}
	for i, w := range plan.Waves {
		if w.Forced {
			t.Fatalf("wave %d forced", i)
		}
		if len(w.Moves) != 1 || len(w.Moves[0].Losers) != 1 {
			t.Fatalf("wave %d moves: %+v", i, w.Moves)
		}
		if w.PlannedMigratedFrac > 0.25+1e-9 {
			t.Fatalf("wave %d migrated frac %.3f > δ", i, w.PlannedMigratedFrac)
		}
	}
	// The two waves together complete the move.
	gone := map[netsim.IP]bool{}
	for _, w := range plan.Waves {
		for _, l := range w.Moves[0].Losers {
			gone[l] = true
		}
	}
	if !gone[ip(3)] || !gone[ip(4)] {
		t.Fatalf("losers not removed: %v", gone)
	}
}

// TestPlanSingleWaveWithoutDelta: δ=0 disables the bound — everything in
// one wave.
func TestPlanSingleWaveWithoutDelta(t *testing.T) {
	v := netsim.IPv4(10, 255, 0, 1)
	st := State{
		Current: map[netsim.IP][]netsim.IP{v: {ip(1), ip(2), ip(3)}},
		Target:  map[netsim.IP][]netsim.IP{v: {ip(2), ip(3), ip(4)}},
		Flows: map[netsim.IP]map[netsim.IP]float64{
			v: {ip(1): 30, ip(2): 30, ip(3): 30},
		},
	}
	plan, err := NewPlan(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Waves) != 1 {
		t.Fatalf("waves = %d, want 1", len(plan.Waves))
	}
	mv := plan.Waves[0].Moves[0]
	if len(mv.Gainers) != 1 || mv.Gainers[0] != ip(4) || len(mv.Losers) != 1 || mv.Losers[0] != ip(1) {
		t.Fatalf("move = %+v", mv)
	}
}

// TestPlanForcedWaveWhenDeltaTooSmall: a removal that alone exceeds δ
// cannot be subdivided; it ships in a wave marked Forced.
func TestPlanForcedWaveWhenDeltaTooSmall(t *testing.T) {
	v := netsim.IPv4(10, 255, 0, 1)
	st := State{
		Current: map[netsim.IP][]netsim.IP{v: {ip(1), ip(2)}},
		Target:  map[netsim.IP][]netsim.IP{v: {ip(1)}},
		Flows: map[netsim.IP]map[netsim.IP]float64{
			v: {ip(1): 50, ip(2): 50},
		},
	}
	plan, err := NewPlan(st, Options{Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Waves) != 1 || !plan.Waves[0].Forced {
		t.Fatalf("plan = %+v, want one forced wave", plan.Waves)
	}
}

// TestPlanTransientCapDefersRemoval: when removing the old holder would
// transiently overload the survivor (Eq. 4–5), the wave adds the gainer
// only; the removal lands in a later (here forced) wave.
func TestPlanTransientCapDefersRemoval(t *testing.T) {
	v := netsim.IPv4(10, 255, 0, 1)
	st := State{
		Current: map[netsim.IP][]netsim.IP{v: {ip(1)}},
		Target:  map[netsim.IP][]netsim.IP{v: {ip(2)}},
		Flows:   map[netsim.IP]map[netsim.IP]float64{v: {ip(1): 10}},
		Traffic: map[netsim.IP]float64{v: 90},
	}
	plan, err := NewPlan(st, Options{TrafficCap: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Waves) < 2 {
		t.Fatalf("waves = %d, want ≥2: %+v", len(plan.Waves), plan.Waves)
	}
	w0 := plan.Waves[0].Moves[0]
	if len(w0.Losers) != 0 || len(w0.Gainers) != 1 || w0.Gainers[0] != ip(2) {
		t.Fatalf("wave 0 should add the gainer only, got %+v", w0)
	}
	last := plan.Waves[len(plan.Waves)-1].Moves[0]
	if len(last.Losers) != 1 || last.Losers[0] != ip(1) {
		t.Fatalf("final wave should remove ip(1), got %+v", last)
	}
}

// TestPlanUntouchedVIPsStay: VIPs absent from Target are not moved.
func TestPlanUntouchedVIPsStay(t *testing.T) {
	v1 := netsim.IPv4(10, 255, 0, 1)
	v2 := netsim.IPv4(10, 255, 0, 2)
	st := State{
		Current: map[netsim.IP][]netsim.IP{
			v1: {ip(1), ip(2)},
			v2: {ip(1), ip(2)},
		},
		Target: map[netsim.IP][]netsim.IP{v1: {ip(1)}},
	}
	plan, err := NewPlan(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Waves) != 1 || len(plan.Waves[0].Moves) != 1 || plan.Waves[0].Moves[0].VIP != v1 {
		t.Fatalf("plan touched more than v1: %+v", plan.Waves)
	}
}
