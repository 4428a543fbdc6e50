package trace

import (
	"testing"

	"repro/internal/assignment"
)

func TestGenerateShape(t *testing.T) {
	tr := Generate(1)
	if len(tr.VIPs) != 120 {
		t.Fatalf("VIPs = %d", len(tr.VIPs))
	}
	if tr.Windows != 144 {
		t.Fatalf("windows = %d, want 144 (24h / 10min)", tr.Windows)
	}
	for i := range tr.VIPs {
		v := &tr.VIPs[i]
		if len(v.Series) != tr.Windows {
			t.Fatalf("VIP %d series length %d", v.ID, len(v.Series))
		}
		for w, x := range v.Series {
			if x <= 0 {
				t.Fatalf("VIP %d window %d traffic %v", v.ID, w, x)
			}
		}
		if v.Rules < minRules || v.Rules > maxRules {
			t.Fatalf("VIP %d rules %d outside bounds", v.ID, v.Rules)
		}
	}
}

func TestTraceMatchesPaperMarginals(t *testing.T) {
	tr := Generate(1)
	// 50K+ rules (§8 setup).
	if tr.TotalRules() < 50000 {
		t.Fatalf("total rules = %d, want 50K+", tr.TotalRules())
	}
	st := tr.Ratios()
	// Figure 15: ratios span roughly 1.07–50.3 with mean ≈ 3.7.
	if st.Min < 1.0 || st.Min > 1.6 {
		t.Errorf("min ratio = %.2f, want ~1.07", st.Min)
	}
	if st.Max < 15 || st.Max > 55 {
		t.Errorf("max ratio = %.2f, want up to ~50.3", st.Max)
	}
	if st.Mean < 2.2 || st.Mean > 5.5 {
		t.Errorf("mean ratio = %.2f, want ~3.7", st.Mean)
	}
	if len(st.Ratios) != len(tr.VIPs) {
		t.Fatalf("ratio count = %d", len(st.Ratios))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(1)
	b := Generate(1)
	for i := range a.VIPs {
		if a.VIPs[i].Rules != b.VIPs[i].Rules {
			t.Fatalf("rules diverged at VIP %d", i)
		}
		for w := range a.VIPs[i].Series {
			if a.VIPs[i].Series[w] != b.VIPs[i].Series[w] {
				t.Fatalf("series diverged at VIP %d window %d", i, w)
			}
		}
	}
	c := Generate(2)
	diff := false
	for w := range a.VIPs[0].Series {
		if a.VIPs[0].Series[w] != c.VIPs[0].Series[w] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestShapeToRatioExact(t *testing.T) {
	s := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	shapeToRatio(s, 5)
	sum := 0.0
	max := 0.0
	for _, x := range s {
		sum += x
		if x > max {
			max = x
		}
	}
	ratio := max / (sum / float64(len(s)))
	if ratio < 4.99 || ratio > 5.01 {
		t.Fatalf("ratio = %v, want 5", ratio)
	}
}

func TestShapeToRatioNoopWhenAlreadyPeaky(t *testing.T) {
	s := []float64{100, 1, 1, 1}
	before := append([]float64(nil), s...)
	shapeToRatio(s, 2) // natural ratio is ~3.9 > 2
	for i := range s {
		if s[i] != before[i] {
			t.Fatal("peaky series modified")
		}
	}
}

func TestProblemAt(t *testing.T) {
	tr := Generate(1)
	p := tr.ProblemAt(0, 12000, 2000, 400, 4)
	if len(p.VIPs) != len(tr.VIPs) {
		t.Fatalf("problem VIPs = %d", len(p.VIPs))
	}
	for i, v := range p.VIPs {
		if v.Replicas < 1 {
			t.Fatalf("VIP %d replicas = %d", i, v.Replicas)
		}
		if v.Traffic != tr.VIPs[i].Series[0] {
			t.Fatalf("VIP %d traffic mismatch", i)
		}
	}
	// The generated problem must be solvable with a generous fleet.
	a, err := assignment.SolveGreedy(p)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if err := assignment.Verify(p, a); err != nil {
		t.Fatal(err)
	}
}

func TestVIPTraceStats(t *testing.T) {
	v := VIPTrace{Series: []float64{2, 4, 6}}
	if v.Avg() != 4 || v.Max() != 6 {
		t.Fatalf("avg=%v max=%v", v.Avg(), v.Max())
	}
	if v.MaxToAvg() != 1.5 {
		t.Fatalf("ratio = %v", v.MaxToAvg())
	}
	empty := VIPTrace{}
	if empty.Avg() != 0 || empty.MaxToAvg() != 0 {
		t.Fatal("empty stats should be zero")
	}
}
