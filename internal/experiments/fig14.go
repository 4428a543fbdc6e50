package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/controller"
	"repro/internal/httpsim"
	"repro/internal/rules"
	"repro/internal/testbed"
)

// Fig14Config parameterizes the safe-policy-update experiment (§7.4).
type Fig14Config struct {
	Seed     int64
	Rate     int // aggregate req/s
	Duration time.Duration
	// Update schedule (paper: add Srv-4 at 10 s, remove Srv-1 at 20 s,
	// reweight to 1:1:2 at 30 s).
	AddAt      time.Duration
	RemoveAt   time.Duration
	ReweightAt time.Duration
}

// DefaultFig14Config mirrors Figure 14.
func DefaultFig14Config() Fig14Config {
	return Fig14Config{
		Seed:       1,
		Rate:       200,
		Duration:   40 * time.Second,
		AddAt:      10 * time.Second,
		RemoveAt:   20 * time.Second,
		ReweightAt: 30 * time.Second,
	}
}

// Fig14Point is one second of per-backend traffic fractions.
type Fig14Point struct {
	At        time.Duration
	Fractions map[string]float64 // backend name -> fraction of requests
}

// Fig14Result reproduces Figure 14: the traffic split tracking a
// make-before-break policy change, with zero broken flows.
type Fig14Result struct {
	Series   []Fig14Point
	Requests int
	Broken   int
	// PhaseFractions are the mean fractions within each policy phase.
	PhaseFractions [4]map[string]float64
}

// RunFig14 drives the policy-update schedule.
func RunFig14(cfg Fig14Config) *Fig14Result {
	ctCfg := controller.DefaultConfig()
	b := testbed.New(testbed.Config{
		Seed: cfg.Seed, Objects: oneObject("/obj", 4*1024),
		Backends: 4, Split: 3, Stores: 3, LBs: 3, Controller: &ctCfg,
	})
	c, ct, vip := b.C, b.Ctl, b.VIP

	split := func(weights map[string]float64) []rules.Rule {
		// Build the split in sorted name order: map iteration order is
		// randomized, and split order decides which backend each weighted
		// draw lands on, so it must be stable for deterministic output.
		names := make([]string, 0, len(weights))
		for name := range weights {
			names = append(names, name)
		}
		sort.Strings(names)
		wb := make([]rules.WeightedBackend, 0, len(names))
		for _, name := range names {
			wb = append(wb, rules.WeightedBackend{Backend: c.Backends[name].Rec, Weight: weights[name]})
		}
		return []rules.Rule{{
			Name: "split", Priority: 1, Match: rules.Match{URLGlob: "*"},
			Action: rules.Action{Type: rules.ActionSplit, Split: wb},
		}}
	}

	// Schedule the three policy changes.
	c.Net.Schedule(cfg.AddAt, func() {
		ct.UpdatePolicy(vip, split(map[string]float64{"srv-1": 1, "srv-2": 1, "srv-3": 1, "srv-4": 1}))
	})
	c.Net.Schedule(cfg.RemoveAt, func() {
		// Soft removal: new connections avoid Srv-1; existing ones drain.
		ct.UpdatePolicy(vip, split(map[string]float64{"srv-2": 1, "srv-3": 1, "srv-4": 1}))
	})
	c.Net.Schedule(cfg.ReweightAt, func() {
		ct.UpdatePolicy(vip, split(map[string]float64{"srv-2": 1, "srv-3": 1, "srv-4": 2}))
	})

	res := &Fig14Result{}
	// Per-second counting of which backend served each request, via the
	// backends' request counters.
	prev := map[string]int{}
	var sample func()
	sample = func() {
		now := c.Net.Now()
		if now > cfg.Duration {
			return
		}
		pt := Fig14Point{At: now, Fractions: map[string]float64{}}
		total := 0
		cur := map[string]int{}
		for name, b := range c.Backends {
			cur[name] = b.Server.Requests
			d := cur[name] - prev[name]
			pt.Fractions[name] = float64(d)
			total += d
		}
		if total > 0 {
			for name := range pt.Fractions {
				pt.Fractions[name] /= float64(total)
			}
		}
		prev = cur
		res.Series = append(res.Series, pt)
		c.Net.Schedule(time.Second, sample)
	}
	c.Net.Schedule(time.Second, sample)

	b.OpenLoop(8, func() int { return cfg.Rate }, cfg.Duration, "/obj", func(r *httpsim.FetchResult) {
		res.Requests++
		if r.Err != nil {
			res.Broken++
		}
	})
	c.Net.RunFor(cfg.Duration + 35*time.Second)

	// Phase means.
	bounds := []time.Duration{0, cfg.AddAt, cfg.RemoveAt, cfg.ReweightAt, cfg.Duration}
	for ph := 0; ph < 4; ph++ {
		acc := map[string]float64{}
		n := 0
		for _, pt := range res.Series {
			// Skip the transition second itself.
			if pt.At > bounds[ph]+time.Second && pt.At <= bounds[ph+1] {
				for name, f := range pt.Fractions {
					acc[name] += f
				}
				n++
			}
		}
		if n > 0 {
			for name := range acc {
				acc[name] /= float64(n)
			}
		}
		res.PhaseFractions[ph] = acc
	}
	return res
}

// String prints the phase means and broken-flow count.
func (r *Fig14Result) String() string {
	names := []string{"srv-1", "srv-2", "srv-3", "srv-4"} // the paper's Srv-1 … Srv-4
	phases := []string{"0-10s equal(1,2,3)", "10-20s equal(1,2,3,4)", "20-30s equal(2,3,4)", "30-40s 1:1:2(2,3,4)"}
	rows := make([][]string, 0, 4)
	for ph, label := range phases {
		row := []string{label}
		for _, n := range names {
			row = append(row, fmtPct(r.PhaseFractions[ph][n]))
		}
		rows = append(rows, row)
	}
	s := "Figure 14 — traffic split across a make-before-break policy update\n"
	s += table([]string{"phase", "Srv-1", "Srv-2", "Srv-3", "Srv-4"}, rows)
	s += fmt.Sprintf("broken flows: %d of %d (paper: 0)\n", r.Broken, r.Requests)
	return s
}
