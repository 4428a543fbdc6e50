package assignment

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Clone deep-copies the assignment.
func (a *Assignment) Clone() *Assignment {
	out := NewAssignment()
	for v, insts := range a.ByVIP {
		out.ByVIP[v] = append([]int(nil), insts...)
	}
	return out
}

// mkProblem builds a problem with nVIPs uniform VIPs.
func mkProblem(nVIPs, replicas int, traffic float64, ruleCount int) *Problem {
	p := &Problem{
		MaxInst:    100,
		TrafficCap: 100,
		RuleCap:    2000,
	}
	for i := 0; i < nVIPs; i++ {
		p.VIPs = append(p.VIPs, VIP{
			ID: i, Traffic: traffic, Rules: ruleCount, Replicas: replicas, Oversub: 0.25,
		})
	}
	return p
}

func TestVIPFailuresAndShare(t *testing.T) {
	v := VIP{Traffic: 100, Replicas: 4, Oversub: 0.25}
	if v.Failures() != 1 {
		t.Fatalf("f_v = %d, want 1", v.Failures())
	}
	// Share: traffic over surviving replicas = 100/3.
	if s := v.Share(); s < 33.3 || s > 33.4 {
		t.Fatalf("share = %v", s)
	}
	// Oversub 0 tolerates no failures.
	v = VIP{Traffic: 100, Replicas: 4, Oversub: 0}
	if v.Failures() != 0 || v.Share() != 25 {
		t.Fatalf("f=%d share=%v", v.Failures(), v.Share())
	}
	// Oversub ≥ 1 clamps to n-1.
	v = VIP{Traffic: 100, Replicas: 4, Oversub: 1}
	if v.Failures() != 3 || v.Share() != 100 {
		t.Fatalf("f=%d share=%v", v.Failures(), v.Share())
	}
}

func TestGreedySatisfiesConstraints(t *testing.T) {
	p := mkProblem(20, 3, 60, 300)
	a, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, a); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPacksTightly(t *testing.T) {
	// 10 VIPs, each share 25 (traffic 50 over 2 surviving replicas),
	// replicas 3, cap 100: lower bound = ceil(10*3*25/100) = 8 instances.
	p := &Problem{MaxInst: 50, TrafficCap: 100, RuleCap: 0}
	for i := 0; i < 10; i++ {
		p.VIPs = append(p.VIPs, VIP{ID: i, Traffic: 50, Rules: 10, Replicas: 3, Oversub: 0.4})
	}
	a, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if used := a.Used(); used > 10 {
		t.Fatalf("greedy used %d instances (lower bound 8)", used)
	}
}

func TestRuleCapForcesSpreading(t *testing.T) {
	// Traffic is tiny but rules are fat: the rule cap must force more
	// instances than traffic alone would.
	p := &Problem{MaxInst: 50, TrafficCap: 1000, RuleCap: 1000}
	for i := 0; i < 10; i++ {
		p.VIPs = append(p.VIPs, VIP{ID: i, Traffic: 1, Rules: 600, Replicas: 2, Oversub: 0})
	}
	a, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, a); err != nil {
		t.Fatal(err)
	}
	// Each instance fits one VIP's rules (600 ≤ 1000 < 1200): 2 replicas ×
	// 10 VIPs / 1 VIP per instance = 20 instances.
	if used := a.Used(); used != 20 {
		t.Fatalf("used = %d, want 20 (rule-bound)", used)
	}
	// All-to-all would use only 1 instance by traffic — the contrast the
	// paper's many-to-many model exploits in reverse (rules vs latency).
	if n := AllToAllInstanceCount(p); n != 1 {
		t.Fatalf("all-to-all count = %d", n)
	}
}

func TestReplicaConstraint(t *testing.T) {
	p := mkProblem(5, 4, 10, 10)
	a, _ := SolveGreedy(p)
	for _, v := range p.VIPs {
		if len(a.ByVIP[v.ID]) != 4 {
			t.Fatalf("VIP %d has %d replicas", v.ID, len(a.ByVIP[v.ID]))
		}
	}
}

func TestInfeasibleTooFewInstances(t *testing.T) {
	p := mkProblem(1, 5, 10, 10)
	p.MaxInst = 3
	if _, err := SolveGreedy(p); err == nil {
		t.Fatal("expected infeasibility: 5 replicas, 3 instances")
	}
}

func TestInfeasibleTrafficOverload(t *testing.T) {
	p := &Problem{MaxInst: 2, TrafficCap: 10, RuleCap: 0}
	for i := 0; i < 10; i++ {
		p.VIPs = append(p.VIPs, VIP{ID: i, Traffic: 10, Rules: 1, Replicas: 1, Oversub: 0})
	}
	if _, err := SolveGreedy(p); err == nil {
		t.Fatal("expected infeasibility: 100 traffic into 20 capacity")
	}
}

func TestStickinessMinimizesMigration(t *testing.T) {
	p := mkProblem(10, 2, 20, 100)
	first, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	// Re-solve the identical problem with the old assignment: nothing
	// should migrate.
	p.Old = first
	p.MigrationLimit = 0.10
	second, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if frac := MigratedFraction(p, second); frac > 0.001 {
		t.Fatalf("unchanged problem migrated %.3f of connections", frac)
	}
}

func TestMigrationLimitRespectedUnderChange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := &Problem{MaxInst: 60, TrafficCap: 100, RuleCap: 2000}
	for i := 0; i < 30; i++ {
		p.VIPs = append(p.VIPs, VIP{
			ID: i, Traffic: 10 + rng.Float64()*50, Rules: 50 + rng.Intn(200),
			Replicas: 2 + rng.Intn(2), Oversub: 0.25,
		})
	}
	old, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	// Shift traffic (diurnal move) and re-solve with a 10% migration cap.
	for i := range p.VIPs {
		p.VIPs[i].Traffic *= 0.5 + rng.Float64()
	}
	p.Old = old
	p.MigrationLimit = 0.10
	p.TransientCheck = true
	a, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	// The solver may have relaxed δ if infeasible; the final result must
	// still verify under some relaxed limit — check the real fraction is
	// bounded by δ plus the relaxation steps.
	frac := MigratedFraction(p, a)
	if frac > 0.5 {
		t.Fatalf("migrated fraction %.3f suspiciously high", frac)
	}
	// Eq. 1–5 must hold regardless of relaxation.
	q := *p
	q.MigrationLimit = 0
	if err := Verify(&q, a); err != nil {
		t.Fatal(err)
	}
}

func TestTransientCheckLimitsOverload(t *testing.T) {
	// Construct a case where ignoring Eq. 4–5 overloads an instance in
	// transition: VIP moves entirely from instance set A to set B that
	// also carries other VIPs near capacity.
	mk := func(transient bool) (int, bool) {
		p := &Problem{MaxInst: 40, TrafficCap: 100, RuleCap: 0, TransientCheck: transient}
		for i := 0; i < 12; i++ {
			p.VIPs = append(p.VIPs, VIP{ID: i, Traffic: 55, Rules: 1, Replicas: 1, Oversub: 0})
		}
		old, err := SolveGreedy(p)
		if err != nil {
			return 0, false
		}
		// Swap traffic so the solver is tempted to shuffle VIPs around.
		for i := range p.VIPs {
			if i%2 == 0 {
				p.VIPs[i].Traffic = 90
			} else {
				p.VIPs[i].Traffic = 20
			}
		}
		p.Old = old
		a, err := SolveGreedy(p)
		if err != nil {
			return 0, false
		}
		over := 0
		for _, tr := range TransientLoad(p, old, a) {
			if tr > p.TrafficCap+1e-9 {
				over++
			}
		}
		return over, true
	}
	overLimited, ok := mk(true)
	if !ok {
		t.Skip("limited variant infeasible under this construction")
	}
	if overLimited != 0 {
		t.Fatalf("Yoda-limit overloaded %d instances in transition", overLimited)
	}
}

func TestGreedyOptimalityGap(t *testing.T) {
	// Compare against the exhaustive optimum on small random instances;
	// the paper ran CPLEX at a 10% gap, we tolerate slightly more on the
	// worst case but require a small mean gap.
	rng := rand.New(rand.NewSource(11))
	totalGap, cases := 0.0, 0
	for trial := 0; trial < 12; trial++ {
		p := &Problem{MaxInst: 6, TrafficCap: 100, RuleCap: 500}
		n := 3 + rng.Intn(3)
		for i := 0; i < n; i++ {
			p.VIPs = append(p.VIPs, VIP{
				ID: i, Traffic: 20 + rng.Float64()*60, Rules: 50 + rng.Intn(150),
				Replicas: 1 + rng.Intn(2), Oversub: 0,
			})
		}
		opt, errO := SolveExhaustive(p)
		got, errG := SolveGreedy(p)
		if errO != nil {
			if errG == nil {
				t.Fatalf("greedy found a solution where exhaustive says infeasible")
			}
			continue
		}
		if errG != nil {
			t.Fatalf("greedy failed on feasible instance: %v", errG)
		}
		gap := float64(got.Used()-opt.Used()) / float64(opt.Used())
		if gap > 0.51 {
			t.Fatalf("trial %d: greedy=%d optimal=%d gap=%.0f%%", trial, got.Used(), opt.Used(), gap*100)
		}
		totalGap += gap
		cases++
	}
	if cases == 0 {
		t.Fatal("no feasible cases generated")
	}
	if mean := totalGap / float64(cases); mean > 0.15 {
		t.Fatalf("mean optimality gap %.1f%% exceeds 15%%", mean*100)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	p := mkProblem(2, 2, 60, 100)
	a, _ := SolveGreedy(p)
	// Break replica count.
	bad := a.Clone()
	bad.ByVIP[0] = bad.ByVIP[0][:1]
	if err := Verify(p, bad); err == nil {
		t.Fatal("missing replica accepted")
	}
	// Duplicate placement.
	bad = a.Clone()
	bad.ByVIP[0] = []int{bad.ByVIP[0][0], bad.ByVIP[0][0]}
	if err := Verify(p, bad); err == nil {
		t.Fatal("duplicate placement accepted")
	}
	// Out of range.
	bad = a.Clone()
	bad.ByVIP[0] = []int{0, p.MaxInst + 5}
	if err := Verify(p, bad); err == nil {
		t.Fatal("out-of-range accepted")
	}
	// Traffic overload: pile everything on instance 0.
	bad = NewAssignment()
	for _, v := range p.VIPs {
		bad.ByVIP[v.ID] = []int{0, 1}
	}
	pTight := mkProblem(2, 2, 600, 100) // share 600 > cap
	if err := Verify(pTight, bad); err == nil {
		t.Fatal("traffic overload accepted")
	}
}

func TestAllToAllBaseline(t *testing.T) {
	p := mkProblem(10, 2, 30, 100)
	if n := AllToAllInstanceCount(p); n != 3 {
		t.Fatalf("instance count = %d, want 3 (10 VIPs x 30 over capacity 100)", n)
	}
}

func TestAssignmentHelpers(t *testing.T) {
	a := NewAssignment()
	a.ByVIP[7] = []int{0, 2}
	if !a.Has(7, 0) || !a.Has(7, 2) || a.Has(7, 1) {
		t.Fatal("Has wrong")
	}
	if a.Used() != 2 {
		t.Fatalf("Used = %d", a.Used())
	}
	per := a.PerInstanceVIPs()
	if len(per[0]) != 1 || per[0][0] != 7 {
		t.Fatalf("PerInstanceVIPs: %v", per)
	}
	cl := a.Clone()
	cl.ByVIP[7][0] = 3
	if a.ByVIP[7][0] != 0 {
		t.Fatal("clone aliases")
	}
}

func TestGreedyConstraintsProperty(t *testing.T) {
	// Any feasible random instance the greedy solves must verify.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &Problem{
			MaxInst:    20 + rng.Intn(30),
			TrafficCap: 100,
			RuleCap:    500 + rng.Intn(1500),
		}
		n := 1 + rng.Intn(15)
		for i := 0; i < n; i++ {
			p.VIPs = append(p.VIPs, VIP{
				ID:       i,
				Traffic:  rng.Float64() * 80,
				Rules:    rng.Intn(400),
				Replicas: 1 + rng.Intn(3),
				Oversub:  rng.Float64() * 0.5,
			})
		}
		a, err := SolveGreedy(p)
		if err != nil {
			return true // infeasible is a legal outcome
		}
		return Verify(p, a) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
