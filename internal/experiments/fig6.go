package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rules"
)

// Fig6Config parameterizes the rule-lookup latency experiment.
type Fig6Config struct {
	Seed       int64
	RuleCounts []int // table sizes to sweep, e.g. 1K..10K
	Lookups    int   // lookups per table size
}

// DefaultFig6Config sweeps 1K–10K rules as in the paper.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Seed:       1,
		RuleCounts: []int{1000, 2000, 4000, 6000, 8000, 10000},
		Lookups:    2000,
	}
}

// Fig6Point is one x-position of Figure 6.
type Fig6Point struct {
	Rules int
	// ModelP90 is the P90 latency under the calibrated latency model the
	// simulator charges per lookup (what end-to-end experiments see).
	ModelP90 time.Duration
	// ScanP90 is the measured wall-clock P90 of the actual linear scan on
	// this machine (the engine really is scanned; this is real work).
	ScanP90 time.Duration
	// AvgScanned is the mean number of rules examined per lookup.
	AvgScanned float64
}

// Fig6Result reproduces Figure 6: HAProxy-style lookup latency versus
// rule-table size. The paper's claim is shape, not absolute numbers: P90
// grows about linearly, with 10K rules ≈ 3× the latency of 1K rules.
type Fig6Result struct {
	Points []Fig6Point
	// Ratio10Kto1K is ModelP90(10K)/ModelP90(1K), ≈3 in the paper.
	Ratio10Kto1K float64
}

// fig6Inputs is the pre-drawn randomness for one rule-count point. Draws
// are generated sequentially from the single seeded stream — in exactly
// the order the measurement loop consumes them — so each point can then
// be evaluated on its own goroutine without perturbing any result.
type fig6Inputs struct {
	paths []string
	rnds  []float64
}

// RunFig6 measures lookup latency across rule-table sizes, each size on
// its own goroutine with its own rule engine. Every reported metric but
// the wall-clock ScanP90 column depends on the seed alone.
func RunFig6(cfg Fig6Config) *Fig6Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Fig6Result{Points: make([]Fig6Point, len(cfg.RuleCounts))}

	inputs := make([]fig6Inputs, len(cfg.RuleCounts))
	for i := range cfg.RuleCounts {
		in := fig6Inputs{
			paths: make([]string, cfg.Lookups),
			rnds:  make([]float64, cfg.Lookups),
		}
		for j := 0; j < cfg.Lookups; j++ {
			in.paths[j] = randomPath(rng)
			in.rnds[j] = rng.Float64()
		}
		inputs[i] = in
	}

	point := func(i int) {
		n := cfg.RuleCounts[i]
		engine := rules.NewEngine(randomRules(n))
		model := metrics.NewDurationHistogram()
		scan := metrics.NewDurationHistogram()
		scanned := 0.0
		for j := 0; j < cfg.Lookups; j++ {
			req := httpsim.NewRequest(inputs[i].paths[j], "svc")
			t0 := time.Now()
			d := engine.Select(req, inputs[i].rnds[j], nil)
			scan.Add(time.Since(t0))
			scanned += float64(d.Scanned)
			lookup, _ := rules.LookupCost(d.Scanned)
			model.Add(lookup)
		}
		res.Points[i] = Fig6Point{
			Rules:      n,
			ModelP90:   model.P90(),
			ScanP90:    scan.P90(),
			AvgScanned: scanned / float64(cfg.Lookups),
		}
	}
	var wg sync.WaitGroup
	for i := range cfg.RuleCounts {
		wg.Add(1)
		go func() { defer wg.Done(); point(i) }()
	}
	wg.Wait()
	if len(res.Points) >= 2 {
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		if first.ModelP90 > 0 {
			res.Ratio10Kto1K = float64(last.ModelP90) / float64(first.ModelP90)
		}
	}
	return res
}

// randomRules builds n rules whose matches mostly miss, so lookups scan
// deep into the table as in a real multi-tenant rule set.
func randomRules(n int) []rules.Rule {
	backend := rules.Backend{Name: "b", Addr: netsim.HostPort{IP: netsim.IPv4(10, 0, 2, 1), Port: 80}}
	out := make([]rules.Rule, 0, n+1)
	for i := 0; i < n-1; i++ {
		out = append(out, rules.Rule{
			Name:     fmt.Sprintf("r%d", i),
			Priority: n - i,
			Match:    rules.Match{URLGlob: fmt.Sprintf("/tenant%d/*.php", i)},
			Action: rules.Action{Type: rules.ActionSplit,
				Split: []rules.WeightedBackend{{Backend: backend, Weight: 1}}},
		})
	}
	// Catch-all at the lowest priority so every lookup terminates there.
	out = append(out, rules.Rule{
		Name: "default", Priority: 0, Match: rules.Match{URLGlob: "*"},
		Action: rules.Action{Type: rules.ActionSplit,
			Split: []rules.WeightedBackend{{Backend: backend, Weight: 1}}},
	})
	return out
}

func randomPath(rng *rand.Rand) string {
	return fmt.Sprintf("/assets/img%d.jpg", rng.Intn(100000))
}

// String prints the figure's series.
func (r *Fig6Result) String() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Rules),
			fmtMs(p.ModelP90),
			fmtMs(p.ScanP90),
			fmt.Sprintf("%.0f", p.AvgScanned),
		})
	}
	s := "Figure 6 — rule lookup latency vs table size (P90)\n"
	s += table([]string{"rules", "P90 (model)", "P90 (real scan)", "avg scanned"}, rows)
	s += fmt.Sprintf("latency(10K)/latency(1K) = %.2fx (paper: ~3x)\n", r.Ratio10Kto1K)
	return s
}
