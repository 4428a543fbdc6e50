package experiments

import (
	"fmt"
	"time"

	"repro/internal/httpsim"
	"repro/internal/testbed"
)

// CPUConfig parameterizes the §7.1 CPU-overhead experiment.
type CPUConfig struct {
	Seed int64
	// Rates sweeps aggregate request rates against one LB instance.
	Rates []int
	// Duration per rate point.
	Duration time.Duration
	// ObjectSize of the small-request workload.
	ObjectSize int
}

// DefaultCPUConfig sweeps toward the Yoda saturation point (§7.1: Yoda
// saturates at 12K req/s on the 8-core VM; HAProxy sits at 46% there).
func DefaultCPUConfig() CPUConfig {
	return CPUConfig{
		Seed:       1,
		Rates:      []int{2000, 6000, 10000, 12000},
		Duration:   time.Second,
		ObjectSize: 2 * 1024,
	}
}

// CPUPoint is one rate's utilization pair.
type CPUPoint struct {
	Rate       int
	YodaCPU    float64
	HAProxyCPU float64
}

// CPUResult reproduces §7.1's CPU-overhead comparison.
type CPUResult struct {
	Points []CPUPoint
	// YodaSaturationRate is the lowest swept rate at which Yoda's CPU
	// reaches ≥95%.
	YodaSaturationRate int
	// HAProxyCPUAtSaturation is HAProxy's utilization at that rate
	// (paper: 46%).
	HAProxyCPUAtSaturation float64
}

// RunCPU drives a single instance of each LB at increasing request rates
// and records utilization.
func RunCPU(cfg CPUConfig) *CPUResult {
	res := &CPUResult{}
	for _, rate := range cfg.Rates {
		y := runCPUCell(cfg, rate, true)
		h := runCPUCell(cfg, rate, false)
		res.Points = append(res.Points, CPUPoint{Rate: rate, YodaCPU: y, HAProxyCPU: h})
		if res.YodaSaturationRate == 0 && y >= 0.95 {
			res.YodaSaturationRate = rate
			res.HAProxyCPUAtSaturation = h
		}
	}
	return res
}

func runCPUCell(cfg CPUConfig, rate int, yoda bool) float64 {
	b := testbed.New(testbed.Config{
		Seed: cfg.Seed, Objects: oneObject("/obj", cfg.ObjectSize),
		Backends: 4, Stores: 2, LBs: 1, HAProxy: !yoda,
	})
	// Open-loop Apache-bench-style load from a pool of client hosts.
	b.OpenLoop(8, func() int { return rate }, cfg.Duration, "/obj", func(*httpsim.FetchResult) {})
	b.C.Net.Run(cfg.Duration)
	if yoda {
		return b.C.Yoda[0].CPU.UtilizationClamped(0, cfg.Duration)
	}
	return b.C.HAProxy[0].CPU.UtilizationClamped(0, cfg.Duration)
}

// String prints the utilization sweep.
func (r *CPUResult) String() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Rate), fmtPct(p.YodaCPU), fmtPct(p.HAProxyCPU),
		})
	}
	s := "§7.1 — LB instance CPU utilization vs request rate (small objects)\n"
	s += table([]string{"req/s", "YODA CPU", "HAProxy CPU"}, rows)
	if r.YodaSaturationRate > 0 {
		s += fmt.Sprintf("YODA saturates at %d req/s; HAProxy at %s there (paper: 12K req/s, 46%%)\n",
			r.YodaSaturationRate, fmtPct(r.HAProxyCPUAtSaturation))
	}
	return s
}
