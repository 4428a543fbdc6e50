package experiments

import (
	"fmt"

	"repro/internal/trace"
)

// Fig15Result reproduces Figure 15: the per-VIP max-to-average traffic
// ratio over the day, which bounds the LB cost an elastic shared service
// saves versus per-tenant peak provisioning (§8.1).
type Fig15Result struct {
	Stats trace.RatioStats
	// NumVIPs and TotalRules echo the trace's §8 setup line.
	NumVIPs    int
	TotalRules int
}

// RunFig15 generates the trace day of seed and computes the ratios.
func RunFig15(seed int64) *Fig15Result {
	tr := trace.Generate(seed)
	return &Fig15Result{
		Stats:      tr.Ratios(),
		NumVIPs:    len(tr.VIPs),
		TotalRules: tr.TotalRules(),
	}
}

// String prints the sorted ratio series (decimated) plus the headline.
func (r *Fig15Result) String() string {
	s := "Figure 15 — max-to-average traffic ratio per VIP (sorted by volume)\n"
	rows := [][]string{}
	step := len(r.Stats.Ratios) / 20
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.Stats.Ratios); i += step {
		rows = append(rows, []string{fmt.Sprintf("%d", i+1), fmt.Sprintf("%.2fx", r.Stats.Ratios[i])})
	}
	s += table([]string{"VIP rank", "max/avg"}, rows)
	s += fmt.Sprintf("trace: %d VIPs, %d rules (paper: 100+ VIPs, 50K+ rules)\n", r.NumVIPs, r.TotalRules)
	s += fmt.Sprintf("ratio range %.2fx–%.2fx, mean %.2fx -> mean LB cost saving %.1fx (paper: 1.07x–50.3x, mean 3.7x)\n",
		r.Stats.Min, r.Stats.Max, r.Stats.Mean, r.Stats.Mean)
	return s
}
